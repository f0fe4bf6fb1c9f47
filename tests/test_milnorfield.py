"""Symbol calculus over F(u): valuations, tame symbols, reciprocity,
and the two rewriting procedures."""

from math import prod

import pytest

from wittcycles.errors import (DegenerateBranch, HypothesisViolated,
                               NonRationalSupport)
from wittcycles.forms import dlog
from wittcycles.milnorfield import (FieldSymbol, Valuation, collect_terms,
                                    dlog_realization, elem_identity_instance,
                                    gersten_boundary, rewrite_filtration,
                                    tame_symbol,
                                    weil_reciprocity_check)
from wittcycles.scalars import FACTOR_CACHE_SIZE, Context, _factors


@pytest.fixture
def ctx():
    return Context(("x", "y", "u"))


UPOS = 2


def test_valuation_ord_residue(ctx):
    x, y, u = ctx.gens()
    base = ctx.drop(UPOS)
    bx, by = base.gens()
    f = (u - x) ** 2 * (u + 1) / (u - 2)
    o, r = Valuation.finite(ctx, UPOS, bx).ord_residue(f)
    assert o == 2 and r == (bx + 1) / (bx - 2)
    o, r = Valuation.infinity(ctx, UPOS).ord_residue(f)
    assert o == -2 and r == base.one
    o, r = Valuation.infinity(ctx, UPOS).ord_residue(5 / u)
    assert o == 1 and r == base.rational(5)


def _factor_list_calls(monkeypatch, poly):
    """The polynomials factor_list is called on from now on."""
    calls = []
    original = type(poly).factor_list
    monkeypatch.setattr(type(poly), "factor_list",
                        lambda self: calls.append(self) or original(self))
    return calls


def test_u_factors_skip_polynomials_free_of_u(ctx, monkeypatch):
    # an earlier test may have factored x*u - 1 already
    _factors.cache_clear()
    x, y, u = ctx.gens()
    f = (2 * x * (u - x) ** 2 * (u * u + y) / (3 * (x + 1))).num
    # the factors 2 and x are dropped, and so is the multiplicity of x - u
    assert [str(g) for g in ctx.u_factors(f, UPOS)] == ["u**2 + y", "x - u"]
    calls = _factor_list_calls(monkeypatch, f)
    for g in (ctx.rational(5), x * y + 1, 6 * x):
        assert ctx.u_factors(g.num, UPOS) == []
    assert not calls
    assert len(ctx.u_factors((u * x - 1).num, UPOS)) == 1 and len(calls) == 1


def test_u_factors_factor_each_polynomial_once(ctx, monkeypatch):
    x, y, u = ctx.gens()
    f = ((u - x) * (x * y + u) * (y - 2)).num
    _factors.cache_clear()
    calls = _factor_list_calls(monkeypatch, f)
    at_u = {str(g) for g in ctx.u_factors(f, UPOS)}
    assert at_u == {"x - u", "x*y + u"}
    assert {str(g) for g in ctx.u_factors(f, UPOS)} == at_u
    # the same factoring serves the u-line of x and of y
    assert {str(g) for g in ctx.u_factors(f, 0)} == {"x - u", "x*y + u"}
    assert {str(g) for g in ctx.u_factors(f, 1)} == {"x*y + u", "y - 2"}
    assert calls == [f]


def test_factors_keep_the_ring_of_each_context():
    a, b = Context(("x", "u")), Context(("y", "u"))
    fa = (a.var(0) * a.var(1) - 1).num
    fb = (b.var(0) * b.var(1) - 1).num
    assert dict(fa) == dict(fb) and fa.ring is not fb.ring
    for poly, ctx in ((fa, a), (fb, b), (fa, a), (fb, b)):
        got, = ctx.u_factors(poly, 1)
        assert got.ring is ctx.ring and got == poly


def test_factor_cache_is_bounded(ctx, monkeypatch):
    x, y, u = ctx.gens()
    products = [((u - k * x) * (u + y) * (x - k)).num for k in (1, 2, 3)]
    _factors.cache_clear()
    for f in products:
        ctx.u_factors(f, UPOS)
    for k in range(1, FACTOR_CACHE_SIZE + 10):
        ctx.u_factors((x * u - k).num, UPOS)
    assert _factors.cache_info().currsize <= FACTOR_CACHE_SIZE
    # the products were evicted: they are factored again, and correctly
    calls = _factor_list_calls(monkeypatch, products[0])
    for f in products:
        got = _factors(ctx.ring, f)
        assert len(got) == 3 and prod(got) in (f, -f)
    assert calls == products


def test_tame_symbol_values(ctx):
    x, y, u = ctx.gens()
    base = ctx.drop(UPOS)
    bx, by = base.gens()
    v0 = Valuation.finite(ctx, UPOS, base.zero)
    # uniformizer against a unit: residue survives
    res = tame_symbol(v0, FieldSymbol(ctx, [u, ctx.lift(bx + by)]))
    assert len(res) == 1 and res[0].entries == (bx + by,) and res[0].coef == 1
    # two units: nothing
    assert tame_symbol(v0, FieldSymbol(ctx, [1 + u * x, x + u])) == []
    # residue 1 gives the trivial symbol {1}
    v1 = Valuation.finite(ctx, UPOS, base.one)
    res = tame_symbol(v1, FieldSymbol(ctx, [u - 1, u]))
    assert len(res) == 1 and res[0].entries == (base.one,)
    # repeated uniformizer contracts to {-1}
    res = collect_terms(tame_symbol(v0, FieldSymbol(ctx, [u, u])))
    assert len(res) == 1 and res[0].entries == (base.rational(-1),)
    assert res[0].coef == 1
    # degree-1 symbol drops to a bare multiplicity
    res = tame_symbol(v0, FieldSymbol(ctx, [u * u * ctx.lift(bx)]))
    assert len(res) == 1 and res[0].entries == () and res[0].coef == 2


def test_gersten_boundary(ctx):
    x, y, u = ctx.gens()
    base = ctx.drop(UPOS)
    bx = base.var(0)
    bnd, nonrat = gersten_boundary(FieldSymbol(ctx, [u]), UPOS)
    assert not nonrat
    totals = {repr(v): sum(s.coef for s in parts) for v, parts in bnd}
    assert totals == {"(u = 0)": 1, "(u = infinity)": -1}
    # {u^2, x}: 2{x} at (u), -2{x} at infinity
    bnd, nonrat = gersten_boundary(
        FieldSymbol(ctx, [u * u, ctx.lift(bx)]), UPOS)
    per = {repr(v): parts for v, parts in bnd}
    assert sum(t.coef for t in per["(u = 0)"] if t.entries == (bx,)) == 2
    assert sum(t.coef for t in per["(u = infinity)"] if t.entries == (bx,)) == -2
    # no rational roots: empty boundary plus a report
    bnd, nonrat = gersten_boundary(FieldSymbol(ctx, [u * u + 1]), UPOS)
    assert nonrat and not bnd


def test_weil_reciprocity(ctx):
    x, y, u = ctx.gens()
    base = ctx.drop(UPOS)
    c = ctx.lift(base.var(0) + base.var(1))
    ok, ev = weil_reciprocity_check(FieldSymbol(ctx, [u, c]), UPOS)
    assert ok, ev
    ok, ev = weil_reciprocity_check(FieldSymbol(ctx, [u, 1 - u]), UPOS)
    assert ok, ev
    ok, ev = weil_reciprocity_check(FieldSymbol(ctx, [u - x, u - y, c]), UPOS)
    assert ok, ev
    with pytest.raises(NonRationalSupport):
        weil_reciprocity_check(FieldSymbol(ctx, [u * u + 1, u]), UPOS)


def test_dlog_realization():
    b2 = Context(("x", "y"))
    x, y = b2.gens()
    assert dlog_realization(FieldSymbol(b2, [x, 1 - x])).is_zero()
    assert dlog_realization(FieldSymbol(b2, [x, y])) == dlog(x).wedge(dlog(y))
    assert dlog_realization(FieldSymbol(b2, [b2.rational(-1), y])).is_zero()


def test_two_entry_identity():
    b2 = Context(("x", "y"))
    x, y = b2.gens()
    for a, b, s, tau in [(b2.one, b2.one, x, y),
                         (b2.rational(2), b2.one, x, x),
                         (x, y, x + 1, y - 2)]:
        lhs, rhs = elem_identity_instance(a, b, s, tau)
        assert (dlog_realization([lhs]) - dlog_realization([rhs])).is_zero()


def test_two_entry_identity_degenerate_branch():
    b2 = Context(("x", "y"))
    x, y = b2.gens()
    with pytest.raises(DegenerateBranch):
        elem_identity_instance(b2.one, -1 / x - 1, x, b2.one)
    # the left side alone realizes to zero in the degenerate case
    s = FieldSymbol(b2, [1 + x, -1 / x])
    assert dlog_realization([s]).is_zero()


@pytest.fixture
def pctx():
    return Context(("x", "pi"))


def test_filtration_base_case(pctx):
    px, pi = pctx.gens()
    v = Valuation.finite(pctx, 1, pctx.drop(1).zero)
    m = 3
    out = rewrite_filtration(FieldSymbol(pctx, [1 + px * pi ** m]), m, 1)
    assert len(out) == 1 and out[0][1].entries == ()
    assert v.ord(out[0][0] - 1) >= m


def test_filtration_two_entries(pctx):
    px, pi = pctx.gens()
    v = Valuation.finite(pctx, 1, pctx.drop(1).zero)
    sym = FieldSymbol(pctx, [1 + pi, 1 + pi ** 2 * px])
    out = rewrite_filtration(sym, 3, 1)
    for w, res in out:
        assert v.ord(w - 1) >= 3
        for e in res.entries:
            assert v.ord(e) == 0
    # realization agreement with the input
    total = dlog_realization([sym]).scale(-1)
    for w, res in out:
        total = total + dlog_realization(
            [FieldSymbol(pctx, (w,) + res.entries, res.coef)])
    assert total.is_zero()
    # pi-adic tame symbols agree as well
    tin = tame_symbol(v, sym)
    tout = []
    for w, res in out:
        tout.extend(tame_symbol(v, FieldSymbol(pctx, (w,) + res.entries, res.coef)))
    diff = tin + [t.scale(-1) for t in tout]
    if diff:
        assert dlog_realization(diff).is_zero()


def test_filtration_early_exit(pctx):
    px, pi = pctx.gens()
    sym = FieldSymbol(pctx, [1 + px * pi, 1 + px * pi ** 5])
    out = rewrite_filtration(sym, 3, 1)
    assert len(out) == 1
    assert out[0][0] == 1 + px * pi ** 5 and out[0][1].coef == -1


def test_filtration_hypothesis_check(pctx):
    px, pi = pctx.gens()
    with pytest.raises(HypothesisViolated):
        rewrite_filtration(FieldSymbol(pctx, [1 + pi, 1 + pi]), 5, 1)
