"""Negative controls: a planted fault in the library makes its check
report `ok: false` under exactly that sub-property's name.  The faults sit
in the form layer, for the sub-properties that read forms over F_m, and in
the tame symbol, for the filtration rewriting's boundary agreement.  The
checks run with their own draws; only the library they call is broken."""

import pytest

from wittcycles import milnorfield, relmilnor, verify
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
    # every tame symbol gains {x_1, .., x_(n-1)} over the residue field
    # (the coefficient 1 for n = 1), so the boundary of the difference
    # no longer vanishes
    "filtration-tame-agreement": (
        lambda mp: plant(mp, milnorfield, "tame_symbol", lambda out, v, sym: out + [
            milnorfield.FieldSymbol(v.base, v.base.gens()[:sym.degree - 1])]),
        lambda: verify.check_rewrite_filtration(("x", "y"), 1, 1)),
    # theta reads exp(a + t) for exp(a)
    "theta-roundtrip": (
        lambda mp: plant(mp, relmilnor, "theta", lambda out, a, bs: relmilnor.RelSymbol(
            [out.entries[0] * exp_t(TruncElem.t(a.ctx, a.level))]
            + list(out.entries[1:]))),
        lambda: verify.check_theta_roundtrip(CTX, 3, 1, m_max=3)),
}


@pytest.mark.parametrize("name", sorted(CONTROLS))
def test_planted_fault_fails_its_sub_property(monkeypatch, name):
    plant_fault, run = CONTROLS[name]
    assert run()["ok"]
    plant_fault(monkeypatch)
    prop = run()
    assert (prop["name"], prop["ok"]) == (name, False)
    assert prop["counterexample"]
