"""Negative controls: a planted fault in the library makes its check
report `ok: false` under exactly that sub-property's name.  The faults sit
in the Witt vector maps (gamma, ghost, unghost, log, Frobenius, the
decomposition, product and restriction) and the log derivative for the
witt suite, in the de Rham-Witt operators d, F, V, the Teichmuller dlog,
product and restriction for the drw suite, in the form layer, for the
sub-properties that read forms over F_m, in relmilnor.normal_form, for
the identities of relative Milnor symbols, in the tame symbol, for its
multilinearity, its vanishing on units, Weil reciprocity and the
filtration rewriting's boundary agreement, in the two-entry identity and
the dlog test, for its degenerate branch, in the rewriting's pairs, for
its ord bound, unit residuals and dlog agreement, and in the division on
F_m and the class maps of addchow, for the cycle-iso suite.  The exp/log
checks see faults in the equality, product and restriction of F_m.
The checks run with their own draws; only the library they call is
broken.  A guard test reads every sub-property name of verify.py and
requires a control for each, here or in test_verify.py, unless the name
is on NO_CONTROL_YET."""

import ast
import os

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


def top(u):
    """t^m at the level m of u, built without a product."""
    return TruncElem(u.ctx, u.level, (u.ctx.zero,) * u.level + (u.ctx.one,))


class Twin(witt.WittVector):
    """A Witt vector that gamma and ghost read as usual but that never
    equals a WittVector."""

    __slots__ = ()


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
    # every tame symbol of two entries gains {x_1} over the residue field,
    # so the units {1 + u c, c + u^2} no longer have zero boundary
    "tame-kills-units": (
        lambda mp: plant(mp, milnorfield, "tame_symbol", lambda out, v, sym: plus_tame(
            out, v, sym) if sym.degree == 2 else out),
        lambda: verify.check_tame_basics(("x", "y"), 1, 2)),
    # every residual entry of the rewriting gains a factor pi (the first
    # trial has no residual entry)
    "filtration-unit-residuals": (
        lambda mp: plant(mp, milnorfield, "rewrite_filtration", lambda out, sym, m, upos: [
            (w, milnorfield.FieldSymbol(sym.ctx, [y * sym.ctx.var(upos) for y in res.entries],
                                        res.coef)) for w, res in out]),
        lambda: verify.check_rewrite_filtration(("x", "y"), 1, 2)),
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
    # principal units never compare equal; log-of-exp compares nilpotents.
    # exp and log see equal arguments in both lines, so no fault in them
    # fails exp-of-log alone
    "exp-of-log": (
        lambda mp: plant(mp, TruncElem, "__eq__", lambda out, a, b: out
                         and not a.is_principal()),
        lambda: verify.check_explog(CTX, 1, 2)),
    # every product of F_m gains t^m; the lines before exp-additive make none
    "exp-additive": (
        lambda mp: plant(mp, TruncElem, "__mul__", lambda out, a, b: out + top(a)),
        lambda: verify.check_explog(CTX, 1, 2)),
    # a principal unit gains t^k when restricted to level k, a nilpotent
    # does not
    "log-multiplicative": (
        lambda mp: plant(mp, TruncElem, "restrict", lambda out, u, level: out + top(
            out) if u.is_principal() else out),
        lambda: verify.check_explog(CTX, 1, 2)),
    # unghost returns a Twin: sums and products still read right through
    # gamma and ghost, but unghost(ghost(a)) != a.  a + b runs through
    # unghost and gamma is injective, so a wrong value would fail
    # gamma-homomorphism first
    "unghost-of-ghost": (
        lambda mp: plant(mp, witt, "unghost", lambda out, g: Twin(
            out.ctx, out.level, out.comps)),
        lambda: verify.check_ghost_gamma(CTX, 1, 2)),
    # ghost returns a list, which never equals the tuple of sums; a + b
    # reads it as before
    "ghost-additive": (
        lambda mp: plant(mp, witt, "ghost", lambda out, a: list(out)),
        lambda: verify.check_ghost_gamma(CTX, 1, 2)),
    # the product of Witt vectors gains the Teichmuller lift [1]; the
    # lines before ghost-multiplicative take no product
    "ghost-multiplicative": (
        lambda mp: plant(mp, witt.WittVector, "__mul__", lambda out, a, b: out
                         + witt.teichmuller(out.ctx.one, out.level)),
        lambda: verify.check_ghost_gamma(CTX, 1, 2)),
    # the decomposition loses its first term
    "decompose-resum": (
        lambda mp: plant(mp, witt, "witt_decompose", lambda out, a: out[1:]),
        lambda: verify.check_witt_vf(CTX, 1, 2)),
    # restriction of a Witt vector gains the Teichmuller lift [1]
    "restrict-verschiebung": (
        lambda mp: plant(mp, witt.WittVector, "restrict", lambda out, a, level: out
                         + witt.teichmuller(out.ctx.one, level)),
        lambda: verify.check_witt_vf(CTX, 1, 2)),
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
    # the product gains dx_1^..^dx_k in omega_1, which V moves to omega_s
    "V-projection-formula": (
        lambda mp: plant(mp, drw.DRWForm, "__mul__", lambda out, a, b: plus_form(out, 0)),
        lambda: verify.check_drw_relations(CTX, 1, 2)),
    # d of a nonzero closed form of positive degree gains dx_1^..^dx_k in
    # omega_1 when k <= r; the first trial at seed 2 draws 0-forms, so
    # FdV-is-d meets no closed 1-form there
    "d-squared-zero": (
        lambda mp: plant(mp, drw, "drw_d", lambda out, a: plus_form(out, 0) if (
            out.is_zero() and not a.is_zero() and 0 < a.degree < a.ctx.r) else out),
        lambda: verify.check_drw_relations(CTX, 2, 2)),
    # a product of total form degree k is scaled by 2^k, which keeps the
    # projection formula (both sides have the same degrees) and breaks
    # Leibniz (d raises the degree of one factor)
    "leibniz": (
        lambda mp: plant(mp, drw.DRWForm, "__mul__", lambda out, a, b: out.scale(
            2 ** out.degree)),
        lambda: verify.check_drw_relations(CTX, 1, 2)),
    # V_s doubles its top component, which restriction drops
    "kernel-in-V-image": (
        lambda mp: plant(mp, drw, "drw_V", lambda out, s, a, level: out._like(
            out.comps[:-1] + (out.comps[-1].scale(2),))),
        lambda: verify.check_drw_kernel(CTX, 1, 2)),
    # restriction gains dx_1^..^dx_k in omega_1, which d kills
    "restrict-commutes-d": (
        lambda mp: plant(mp, drw.DRWForm, "restrict", lambda out, a, level: plus_form(out, 0)),
        lambda: verify.check_drw_relations(CTX, 1, 2)),
    # dlog of a Teichmuller lift doubles; phi does not read it
    "zeta-coherence": (
        lambda mp: plant(mp, drw, "teich_dlog", lambda out, b, level: out.scale(2)),
        lambda: verify.check_drw_vdlog(CTX, 1, 2)),
}


@pytest.mark.parametrize("name", sorted(CONTROLS))
def test_planted_fault_fails_its_sub_property(monkeypatch, name):
    plant_fault, run = CONTROLS[name]
    assert run()["ok"]
    plant_fault(monkeypatch)
    prop = run()
    assert (prop["name"], prop["ok"]) == (name, False)
    assert prop["counterexample"]


# sub-properties that no test forces to fail yet; the list can only shrink.
# No single fault fails these two alone: V-image-support reads the
# components that V-image-in-kernel restricts to just before, and
# kernel-support restricts a form shaped like the V image restricted in
# the same trial, so each needs a second fault in restriction as well.
NO_CONTROL_YET = ["V-image-support", "kernel-support"]


def parse(path):
    with open(path) as source:
        return ast.walk(ast.parse(source.read()))


def test_every_sub_property_has_a_control_or_is_listed():
    names = {node.args[1].value for node in parse(verify.__file__)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_require"}
    # test_verify.py fails these through a broken library call
    failed = {node.comparators[0].value
              for node in parse(os.path.join(os.path.dirname(__file__), "test_verify.py"))
              if isinstance(node, ast.Compare) and ast.unparse(node.left) == "prop['name']"}
    controlled = set(CONTROLS) | failed
    assert controlled <= names and set(NO_CONTROL_YET) <= names
    assert sorted(names - controlled) == NO_CONTROL_YET
