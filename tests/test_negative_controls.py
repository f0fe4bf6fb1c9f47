"""Negative controls: a planted fault in the library makes its check
report `ok: false` under exactly that sub-property's name.  The faults sit
in the Witt vector maps (gamma, log, Frobenius) and the log derivative
for the witt suite, in the de Rham-Witt operators F and V for the drw
suite, in the form layer, for the sub-properties that read forms over
F_m, in relmilnor.normal_form, for the identities of relative Milnor
symbols, in the tame symbol, for its multilinearity, Weil reciprocity and
the filtration rewriting's boundary agreement, in the two-entry identity
and the dlog test, for its degenerate branch, in the rewriting's pairs,
for its ord bound and dlog agreement, and in the division on F_m and the
class maps of addchow, for the cycle-iso suite.
The checks run with their own draws; only the library they call is
broken."""

import pytest

from wittcycles.errors import DegenerateBranch
from wittcycles import addchow, drw, milnorfield, relmilnor, trunc, verify, witt
from wittcycles.forms import CanonRelForm, DiffForm, FormOnTrunc
from wittcycles.scalars import Context
from wittcycles.trunc import TruncElem, exp_t

CTX = Context(("x", "y"))


def plus_form(f, i):
    """f with dx_1^..^dx_k added to its component i, a k-form."""
    comps = list(f.comps)
    k = comps[i].degree
    comps[i] = comps[i] + DiffForm(f.ctx, k, {tuple(range(k)): f.ctx.one})
    return type(f)(f.ctx, f.degree, f.level, comps)


def plant(monkeypatch, owner, name, fault):
    """Replace owner.name by fault(real result, *arguments)."""
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: fault(real(*args), *args))


def plant_nf(monkeypatch, when, fault=lambda out: plus_form(out, 0)):
    """Apply fault to the results of relmilnor.normal_form on the symbol
    sums, as lists of symbols, for which when holds; by default the class
    gains dx_1^..^dx_k in c_1."""
    plant(monkeypatch, relmilnor, "normal_form", lambda out, terms: fault(out) if when(
        [terms] if isinstance(terms, relmilnor.RelSymbol) else list(terms)) else out)


def drop_top(cls):
    """cls with its top coefficient c_m set to zero."""
    return CanonRelForm(cls.ctx, cls.degree, cls.level,
                        cls.comps[:-1] + (DiffForm.zero(cls.ctx, cls.degree),))


def constant_in_t(u):
    return not any(u.comps[1:])


def plus_tame(out, v, sym):
    """A tame symbol with {x_1, .., x_(n-1)} over the residue field added,
    the coefficient 1 for n = 1."""
    return out + [milnorfield.FieldSymbol(v.base, v.base.gens()[:sym.degree - 1])]


def wrong_t2(q):
    """q with q_1 added to its t^2 coefficient."""
    return q[:2] + [q[2] + q[1]] + q[3:] if len(q) > 2 else q


def undetected(two_entry):
    """two_entry that returns w = 1, v = -(y1 - 1) y2 in the degenerate
    branch instead of raising DegenerateBranch."""
    def run(y1, y2):
        try:
            return two_entry(y1, y2)
        except DegenerateBranch:
            return y1.ctx.one, (y1.ctx.one - y1) * y2
    return run


def degenerate(sym):
    """Whether sym is {y1, y2} with 1 + (y1 - 1) y2 = 0, which is
    -{y1, 1 - y1}."""
    return sym.degree == 2 and ((sym.entries[0] - 1) * sym.entries[1] + 1).is_zero()


CONTROLS = {
    # the canonical form of every relative form gains dx in c_1
    "reduce-kills-exact": (
        lambda mp: plant(mp, verify, "reduce_mod_exact", lambda out, a: plus_form(out, 0)),
        lambda: verify.check_reduce_kills_exact(1, 1)),
    # the embedding gains t (x) dx_1^..^dx_k (comps[2] is the t^1 part)
    "reduce-fixes-canonical": (
        lambda mp: plant(mp, CanonRelForm, "embed", lambda out, g: plus_form(out, 2)),
        lambda: verify.check_reduce_kills_exact(1, 1)),
    # d sends every form over F_m to zero, so it still kills exact forms
    "d-injective-on-canonical": (
        lambda mp: plant(mp, FormOnTrunc, "d", lambda out, a: FormOnTrunc.zero(
            a.ctx, a.degree + 1, a.level)),
        lambda: verify.check_reduce_kills_exact(1, 1)),
    # dlog u gains an absolute part dx
    "principal-entry-independence": (
        lambda mp: plant(mp, verify, "trunc_dlog", lambda out, u: plus_form(out, 0)),
        lambda: verify.check_normal_form_welldef(CTX, 2, 3)),
    # every class gains dx in c_1, so {u, w} and -{w, u} differ by 2 dx
    "antisymmetry": (
        lambda mp: plant_nf(mp, lambda syms: True),
        lambda: verify.check_normal_form_welldef(CTX, 2, 3)),
    # a symbol with two equal entries gains dx
    "square-vanishes": (
        lambda mp: plant_nf(mp, lambda syms: any(
            len(set(sym.entries)) < sym.degree for sym in syms)),
        lambda: verify.check_normal_form_welldef(CTX, 2, 3)),
    # a symbol with the entry -1 gains dx
    "minus-one-vanishes": (
        lambda mp: plant_nf(mp, lambda syms: any(
            constant_in_t(u) and u.comps[0] == -u.ctx.one
            for sym in syms for u in sym.entries)),
        lambda: verify.check_normal_form_welldef(CTX, 2, 3)),
    # a sum of several symbols gains dx
    "bilinearity": (
        lambda mp: plant_nf(mp, lambda syms: len(syms) > 1),
        lambda: verify.check_normal_form_welldef(CTX, 2, 3)),
    # a sum with a symbol whose first entry is a constant other than 1
    # gains dx
    "bilinearity-mixed-constant": (
        lambda mp: plant_nf(mp, lambda syms: any(
            constant_in_t(sym.entries[0]) and not sym.entries[0].is_principal()
            for sym in syms)),
        lambda: verify.check_normal_form_welldef(CTX, 2, 3)),
    # a symbol of three entries gains dx^dy
    "absolute-product": (
        lambda mp: plant_nf(mp, lambda syms: syms[0].degree == 3),
        lambda: verify.check_relmilnor_products(CTX, 4, 10)),
    # every class loses its top coefficient c_m; products with absolute
    # symbols lose it on both sides, restrictions below m do not
    "restriction-square": (
        lambda mp: plant_nf(mp, lambda syms: True, drop_top),
        lambda: verify.check_relmilnor_products(CTX, 4, 10)),
    # every tame symbol gains {x_1, .., x_(n-1)} over the residue field
    # (the coefficient 1 for n = 1), so the boundary of the difference
    # no longer vanishes
    "filtration-tame-agreement": (
        lambda mp: plant(mp, milnorfield, "tame_symbol", plus_tame),
        lambda: verify.check_rewrite_filtration(("x", "y"), 1, 1)),
    # every tame symbol at infinity gains {x_1, .., x_(n-1)} over the
    # residue field, so the boundary no longer sums to zero
    "weil-reciprocity": (
        lambda mp: plant(mp, milnorfield, "tame_symbol", lambda out, v, sym: plus_tame(
            out, v, sym) if v.fac is None else out),
        lambda: verify.check_weil_reciprocity(("x", "y"), 1, 2)),
    # every tame symbol of one entry gains the coefficient 1, once on the
    # left of {e1 e2} = {e1} + {e2} and twice on the right
    "tame-multilinearity-n1": (
        lambda mp: plant(mp, milnorfield, "tame_symbol", plus_tame),
        lambda: verify.check_tame_basics(("x", "y"), 1, 2)),
    # every pair of the rewriting leads with w = 2, of order 0 in w - 1
    "filtration-ord-bound": (
        lambda mp: plant(mp, milnorfield, "rewrite_filtration", lambda out, sym, m, upos: [
            (sym.ctx.rational(2), res) for w, res in out]),
        lambda: verify.check_rewrite_filtration(("x", "y"), 1, 1)),
    # the first pair of every rewriting gets a doubled coefficient
    "filtration-dlog-agreement": (
        lambda mp: plant(mp, milnorfield, "rewrite_filtration", lambda out, sym, m, upos: [
            (w, res.scale(2)) for w, res in out[:1]] + out[1:]),
        lambda: verify.check_rewrite_filtration(("x", "y"), 1, 1)),
    # the two-entry identity no longer detects its degenerate branch
    "degenerate-branch-detected": (
        lambda mp: mp.setattr(milnorfield, "two_entry", undetected(milnorfield.two_entry)),
        lambda: verify.check_elem_identity(("x", "y"), 1, 2)),
    # the dlog test reports a nonzero form on every sum with a symbol of
    # the degenerate branch
    "degenerate-branch-zero": (
        lambda mp: plant(mp, milnorfield, "dlog_is_zero", lambda out, terms: out and not any(
            degenerate(sym) for sym in terms)),
        lambda: verify.check_elem_identity(("x", "y"), 1, 2)),
    # theta reads exp(a + t) for exp(a)
    "theta-roundtrip": (
        lambda mp: plant(mp, relmilnor, "theta", lambda out, a, bs: relmilnor.RelSymbol(
            [out.entries[0] * exp_t(TruncElem.t(a.ctx, a.level))]
            + list(out.entries[1:]))),
        lambda: verify.check_theta_roundtrip(CTX, 3, 1, m_max=3)),
    # every division on F_m gets one wrong t^2 coefficient; the Milnor class
    # reads it through the log derivative, the de Rham-Witt class makes no
    # division
    "diagonal-vs-symbol": (
        lambda mp: plant(mp, trunc, "series_quotient", lambda out, w, v: wrong_t2(out)),
        lambda: verify.check_cycle_dictionary(CTX, 106, 20)),
    # the inverse diagonal gains dx_1^..^dx_k in omega_1
    "diagonal-invertible": (
        lambda mp: plant(mp, addchow, "milnor_to_drw_diagonal",
                         lambda out, xi: plus_form(out, 0)),
        lambda: verify.check_cycle_dictionary(CTX, 106, 20)),
    # the Milnor class gains dx_1^..^dx_k in c_1 at odd levels only
    "tower-compatibility": (
        lambda mp: plant(mp, addchow, "cyc_milnor",
                         lambda out, zs, m: plus_form(out, 0) if m % 2 else out),
        lambda: verify.check_towers(CTX, 106, 20)),
    # gamma gains t^m, so gamma(a + b) and gamma(a) gamma(b) differ by t^m
    "gamma-homomorphism": (
        lambda mp: plant(mp, witt, "gamma", lambda out, a: out + TruncElem.t(
            a.ctx, a.level) ** a.level),
        lambda: verify.check_ghost_gamma(CTX, 1, 2)),
    # t u'/u gains t^m
    "log-derivative-identity": (
        lambda mp: plant(mp, trunc, "log_derivative", lambda out, u: out + TruncElem.t(
            u.ctx, u.level) ** u.level),
        lambda: verify.check_ghost_gamma(CTX, 1, 2)),
    # log gains t
    "log-of-exp": (
        lambda mp: plant(mp, verify, "log_t", lambda out, u: out + TruncElem.t(
            u.ctx, u.level)),
        lambda: verify.check_explog(CTX, 1, 2)),
    # F_s gains the Teichmuller lift [1]
    "frobenius-verschiebung": (
        lambda mp: plant(mp, witt, "frobenius", lambda out, s, a: out + witt.teichmuller(
            out.ctx.one, out.level)),
        lambda: verify.check_witt_vf(CTX, 1, 2)),
    # F_s gains dx_1^..^dx_k in omega_1
    "FdV-is-d": (
        lambda mp: plant(mp, drw, "drw_F", lambda out, s, a: plus_form(out, 0)),
        lambda: verify.check_drw_relations(CTX, 1, 2)),
    # V_s gains dx_1^..^dx_k in omega_1, which restriction keeps
    "V-dlog-identity": (
        lambda mp: plant(mp, drw, "drw_V", lambda out, s, a, level: plus_form(out, 0)),
        lambda: verify.check_drw_vdlog(CTX, 1, 2)),
    "V-image-in-kernel": (
        lambda mp: plant(mp, drw, "drw_V", lambda out, s, a, level: plus_form(out, 0)),
        lambda: verify.check_drw_kernel(CTX, 1, 2)),
}


@pytest.mark.parametrize("name", sorted(CONTROLS))
def test_planted_fault_fails_its_sub_property(monkeypatch, name):
    plant_fault, run = CONTROLS[name]
    assert run()["ok"]
    plant_fault(monkeypatch)
    prop = run()
    assert (prop["name"], prop["ok"]) == (name, False)
    assert prop["counterexample"]
