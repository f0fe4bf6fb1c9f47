"""Differential forms over F and over F_m, and the canonical reduction.

dlog is checked against the route it replaced, the quotient du/u."""

import random
from fractions import Fraction
from math import prod

import pytest

from wittcycles.errors import NotRelative, ZeroArgument
from wittcycles.forms import (CanonRelForm, DiffForm, FormOnTrunc, dlog,
                              dlog_wedge, reduce_mod_exact)
from wittcycles.scalars import Context


@pytest.fixture
def ctx():
    return Context(("x", "y"))


def test_dlog_basics(ctx):
    x, y = ctx.gens()
    assert dlog(x) == DiffForm(ctx, 1, {(0,): 1 / x})
    # dlog of a product splits
    assert dlog((1 + x) * (1 + y)) == DiffForm(
        ctx, 1, {(0,): 1 / (1 + x), (1,): 1 / (1 + y)})
    assert dlog(ctx.rational(7)).is_zero()


def old_dlog(u):
    """du/u as a 1-form, each coefficient the one quotient du/u: the
    route dlog took before it summed over log parts."""
    if u.is_zero():
        raise ZeroArgument("dlog(0)")
    coeffs = {}
    for i in range(u.ctx.r):
        du = u.diff(i)
        if not du.is_zero():
            coeffs[(i,)] = du / u
    return DiffForm(u.ctx, 1, coeffs)


def _dlog_args(rng, count):
    """Seeded elements in 1-3 variables: rational constants, and rational
    multiples of products of factors, some with negative leading
    coefficients, each to the power 1, 2 or -1."""
    for k in range(count):
        ctx = Context(("x", "y", "z")[:k % 3 + 1])
        gens = ctx.gens()
        pool = [f for g in gens for h in gens
                for f in (g, g + 1, 3 - 2 * g, -g * h + 1, g - 2 * h, g * g - h)]
        c = ctx.rational(rng.choice((1, -1, 2, Fraction(-3, 4), 5)))
        if rng.random() < 0.15:
            yield c
            continue
        yield c * prod(rng.choice(pool) ** rng.choice((1, 1, 2, -1))
                       for _ in range(rng.randint(1, 3)))


def test_dlog_matches_the_quotient_route():
    b2 = Context(("x", "y"))
    x, y = b2.gens()
    fixed = [(x + 1) ** 2 / y, -x, -(x + 1) ** 2 / (2 * y), (1 - x) / (y + 3) ** 2,
             b2.rational(7), b2.rational(Fraction(-3, 4)), (x + 2) / (y - 3)]
    seen = set()
    for u in fixed + list(_dlog_args(random.Random(3301), 150)):
        got, want = dlog(u), old_dlog(u)
        assert got == want and repr(got) == repr(want), u
        seen.add((type(u.den) is int, got.is_zero(), u.ctx.r))
    assert {(True, True, 1), (True, False, 1), (False, False, 1)} <= seen
    assert {(p, False, r) for p in (True, False) for r in (1, 2, 3)} <= seen
    for ctx in (b2, Context(("x",))):
        for route in (dlog, old_dlog):
            with pytest.raises(ZeroArgument, match="^dlog\\(0\\)$"):
                route(ctx.zero)


def test_d_of_x_dy(ctx):
    x = ctx.var(0)
    form = DiffForm(ctx, 1, {(1,): x})
    assert form.d() == DiffForm(ctx, 2, {(0, 1): ctx.one})


def test_wedge_antisymmetry_and_d_squared(ctx):
    x, y = ctx.gens()
    a = DiffForm(ctx, 1, {(0,): y, (1,): x * x})
    b = DiffForm(ctx, 1, {(0,): x + 1})
    assert a.wedge(b) == -b.wedge(a)
    assert a.d().d().is_zero()
    assert dlog_wedge(ctx, [x, x]).is_zero()


def test_trunc_d_with_dt_term(ctx):
    x = ctx.var(0)
    m = 3
    # d(t^2 (x) x) = t^2 (x) dx + 2 t dt ^ x
    alpha = FormOnTrunc.of(ctx, 0, m,
                           tparts=[DiffForm.zero(ctx, 0), DiffForm.zero(ctx, 0),
                                   DiffForm.scalar(x), DiffForm.zero(ctx, 0)])
    got = alpha.d()
    assert got.tparts[2] == DiffForm(ctx, 1, {(0,): ctx.one})
    assert got.dt[1] == DiffForm.scalar(x).scale(2)
    assert all(got.tparts[i].is_zero() for i in (0, 1, 3))


def test_trunc_wedge_truncates(ctx):
    m = 2
    dx = dlog(ctx.var(0)).scale(ctx.var(0))
    zero = DiffForm.zero(ctx, 1)
    a = FormOnTrunc.of(ctx, 1, m, tparts=[zero, dx, zero])
    b = FormOnTrunc.of(ctx, 1, m, tparts=[zero, zero, dlog(ctx.var(1))])
    # t * t^m = 0
    assert a.wedge(b).is_zero()


def test_top_index_dt_term_is_zero_by_shape(ctx):
    # the split representation simply has no slot for t^m dt
    m = 2
    f = FormOnTrunc.of(ctx, 1, m, dt=[DiffForm.zero(ctx, 0)] * m)
    assert len(f.dt) == m and f.is_zero()


def test_reduce_dt_only_term(ctx):
    x, y = ctx.gens()
    m = 3
    eta = DiffForm(ctx, 0, {(): x * y})
    alpha = FormOnTrunc.of(ctx, 1, m, dt=[eta, DiffForm.zero(ctx, 0),
                                          DiffForm.zero(ctx, 0)])
    got = reduce_mod_exact(alpha)
    assert got.comps[0] == -eta.d()
    assert got.comps[1].is_zero() and got.comps[2].is_zero()


def test_reduce_kills_exact(ctx):
    x, y = ctx.gens()
    m = 3
    omega = DiffForm(ctx, 1, {(0,): y ** 2, (1,): x})
    zero = DiffForm.zero(ctx, 1)
    alpha = FormOnTrunc.of(ctx, 1, m, tparts=[zero, zero, omega, zero])
    assert reduce_mod_exact(alpha.d()).is_zero()


def test_reduce_fixes_canonical(ctx):
    closed = dlog(ctx.var(0))  # closed 1-form
    m = 2
    zero = DiffForm.zero(ctx, 1)
    alpha = FormOnTrunc.of(ctx, 1, m, tparts=[zero, closed, zero])
    got = reduce_mod_exact(alpha)
    assert got.comps == (closed, DiffForm.zero(ctx, 1))


def test_reduce_rejects_absolute_part(ctx):
    alpha = FormOnTrunc.of(ctx, 0, 1, tparts=[DiffForm.scalar(ctx.one), DiffForm.zero(ctx, 0)])
    with pytest.raises(NotRelative):
        reduce_mod_exact(alpha)


def test_canon_embed_restrict_roundtrip(ctx):
    x = ctx.var(0)
    g = CanonRelForm(ctx, 1, 3, [dlog(x), dlog(x + 1), dlog(x).scale(2)])
    assert reduce_mod_exact(g.embed()) == g
    assert g.restrict(2).comps == g.comps[:2]


def test_form_json_roundtrip(ctx):
    x, y = ctx.gens()
    f = FormOnTrunc.of(ctx, 1, 2,
                       tparts=[dlog(x), dlog(y), DiffForm.zero(ctx, 1)],
                       dt=[DiffForm.scalar(x * y), DiffForm.zero(ctx, 0)])
    assert FormOnTrunc.from_json(ctx, f.to_json()) == f


@pytest.mark.parametrize("degree, subset, message", [
    (1, (0, 1), "bad index subset"),
    (2, (1, 0), "bad index subset"),
    (2, (0, 0), "bad index subset"),
    (1, (2,), "out of range"),
    (1, (-1,), "out of range"),
], ids=["length", "unsorted", "repeated", "above", "below"])
def test_forms_refuse_bad_index_subsets(ctx, degree, subset, message):
    """A nonzero coefficient on an index subset that is not a sorted set
    of degree distinct variables is refused, built directly or read back."""
    with pytest.raises(ValueError, match=message):
        DiffForm(ctx, degree, {subset: ctx.one})
    with pytest.raises(ValueError, match=message):
        DiffForm.from_json(ctx, degree, [[list(subset), ctx.one.to_json()]])


@pytest.mark.parametrize("build", [
    lambda ctx, one, two: CanonRelForm(ctx, 1, 2, [one, two]),
    lambda ctx, one, two: FormOnTrunc.of(ctx, 1, 1, tparts=[one, two]),
    lambda ctx, one, two: FormOnTrunc.of(ctx, 1, 1, dt=[one]),
    lambda ctx, one, two: FormOnTrunc(ctx, 1, 1, [one] * 3),
], ids=["canonical", "t-part", "dt-part", "interleaved"])
def test_one_degree_rule_for_every_tuple_of_forms(ctx, build):
    """Component i of a tuple of n-forms has degree n - i % width."""
    one, two = dlog(ctx.var(0)), dlog_wedge(ctx, ctx.gens())
    with pytest.raises(ValueError, match="^component degree mismatch$"):
        build(ctx, one, two)


def test_level_tuples_check_their_level_and_length(ctx):
    """The shape checks of every level-m tuple, met here directly since
    the command line refuses a level below 1 before building one."""
    zero = DiffForm.zero(ctx, 1)
    with pytest.raises(ValueError, match="^level must be >= 1$"):
        CanonRelForm(ctx, 1, 0, [])
    with pytest.raises(ValueError, match="^need exactly 2 components$"):
        CanonRelForm(ctx, 1, 2, [zero])
