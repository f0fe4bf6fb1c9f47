"""Big Witt vectors: ghost coordinates, gamma, V/F, decomposition."""

import random

import pytest

from wittcycles.errors import BadConstantTerm
from wittcycles.scalars import Context
from wittcycles.trunc import TruncElem
from wittcycles.witt import (WittVector, frobenius, gamma, gamma_inv, ghost,
                             teichmuller, unghost, verschiebung,
                             witt_decompose)


@pytest.fixture
def ctx():
    return Context(("a", "b"))


def peel_gamma_inv(u):
    """Reference gamma_inv: peel off the factors (1 - a_i t^i) degree by
    degree, reading a_i from the lowest remaining t-coefficient."""
    m = u.level
    coords = []
    v = u
    for i in range(1, m + 1):
        ai = -v.comps[i]
        coords.append(ai)
        if not ai.is_zero():
            factor = [u.ctx.one] + [u.ctx.zero] * m
            factor[i] = -ai
            v = v * TruncElem(u.ctx, m, factor).inv()
    return WittVector(u.ctx, m, coords)


def test_ghost_values(ctx):
    a, b = ctx.gens()
    assert ghost(WittVector(ctx, 2, [a, ctx.zero])) == (a, a * a)
    assert ghost(WittVector(ctx, 2, [ctx.zero, a])) == (ctx.zero, 2 * a)


def test_unghost_solves(ctx):
    got = unghost((ctx.rational(3), ctx.rational(9)))
    assert got == WittVector(ctx, 2, [ctx.rational(3), ctx.zero])


def test_addition_of_teichmullers(ctx):
    a, b = ctx.gens()
    got = WittVector(ctx, 2, [a, ctx.zero]) + WittVector(ctx, 2, [b, ctx.zero])
    assert got == WittVector(ctx, 2, [a + b, -(a * b)])


def test_additive_and_multiplicative_identities(ctx):
    a = WittVector(ctx, 3, [ctx.var(0), ctx.rational(2), ctx.var(1)])
    assert a + WittVector.zero(ctx, 3) == a
    assert teichmuller(ctx.one, 3) * a == a


def test_gamma_shapes(ctx):
    a = ctx.var(0)
    assert gamma(WittVector(ctx, 3, [a, ctx.zero, ctx.zero])) == TruncElem(
        ctx, 3, [ctx.one, -a, ctx.zero, ctx.zero])
    u = TruncElem(ctx, 2, [ctx.one, ctx.rational(-3), ctx.zero])
    assert gamma_inv(u) == WittVector(ctx, 2, [ctx.rational(3), ctx.zero])
    v = TruncElem(ctx, 2, [ctx.one, ctx.one, ctx.zero])
    assert gamma_inv(v) == WittVector(ctx, 2, [ctx.rational(-1), ctx.zero])
    with pytest.raises(BadConstantTerm):
        gamma_inv(TruncElem.constant(a, 2))


def test_gamma_homomorphism_instance(ctx):
    a = WittVector(ctx, 4, [ctx.var(0), ctx.one, ctx.zero, ctx.var(1)])
    b = WittVector(ctx, 4, [ctx.rational(2), ctx.var(1), ctx.one, ctx.zero])
    assert gamma(a + b) == gamma(a) * gamma(b)
    assert gamma_inv(gamma(a)) == a


def test_gamma_inv_matches_peeling_on_dense_fraction_units(ctx):
    # every t-coefficient is a fraction-tier element (p + q a + r b)/(b + k)
    a, b = ctx.gens()
    rng = random.Random(5150)
    for m in range(1, 13):
        coeffs = [ctx.one]
        for _ in range(m):
            num = rng.randint(-3, 3) + rng.choice([1, -1, 2]) * a + rng.randint(-2, 2) * b
            coeffs.append(num / (b + rng.randint(1, 4)))
        u = TruncElem(ctx, m, coeffs)
        assert type(coeffs[1].den) is not int
        assert gamma_inv(u) == peel_gamma_inv(u)


def test_log_derivative_identity(ctx):
    # -t u'/u = sum g_j t^j for u = gamma(a)
    a = WittVector(ctx, 3, [ctx.var(0), ctx.var(1), ctx.rational(2)])
    u = gamma(a)
    g = ghost(a)
    minus_t_du = TruncElem(ctx, 3, [ctx.zero] + [u.comps[i] * (-i)
                                                 for i in range(1, 4)])
    assert minus_t_du * u.inv() == TruncElem(ctx, 3, (ctx.zero,) + g)


def test_verschiebung_ghost(ctx):
    a = ctx.var(0)
    v = verschiebung(2, WittVector(ctx, 1, [a]), 2)
    assert ghost(v) == (ctx.zero, 2 * a)
    assert gamma(v) == TruncElem(ctx, 2, [ctx.one, ctx.zero, -a])


def test_frobenius_verschiebung_is_multiplication_by_s(ctx):
    a = WittVector(ctx, 2, [ctx.var(0), ctx.var(1)])
    fv = frobenius(2, verschiebung(2, a, 4))
    g = ghost(a)
    assert fv == unghost(tuple(2 * c for c in g))


def test_v_and_f_refuse_bad_indices_and_levels(ctx):
    a = WittVector(ctx, 2, [ctx.var(0), ctx.var(1)])
    for s in (0, -1):
        with pytest.raises(ValueError, match="^s must be >= 1$"):
            verschiebung(s, a, 2)
        with pytest.raises(ValueError, match="^s must be >= 1$"):
            frobenius(s, a)
    # V_2 at level 6 reads a_1..a_3
    with pytest.raises(ValueError, match="^input level 2 too small for V_2 at level 6$"):
        verschiebung(2, a, 6)
    assert verschiebung(2, a, 5).comps[3] == ctx.var(1)
    with pytest.raises(ValueError, match="^F_3 empties a level-2 vector$"):
        frobenius(3, a)


def test_restrict(ctx):
    a = WittVector(ctx, 3, [ctx.var(0), ctx.var(1), ctx.one])
    assert a.restrict(2) == WittVector(ctx, 2, [ctx.var(0), ctx.var(1)])


def test_decompose(ctx):
    a, b = ctx.gens()
    w = WittVector(ctx, 2, [a, b])
    assert witt_decompose(w) == [(1, a), (2, b)]
    resum = verschiebung(1, teichmuller(a, 2), 2) + verschiebung(2, teichmuller(b, 1), 2)
    assert resum == w
    assert witt_decompose(WittVector.zero(ctx, 3)) == []
    assert witt_decompose(teichmuller(a, 2)) == [(1, a)]


def test_json_roundtrip(ctx):
    a = WittVector(ctx, 2, [ctx.var(0) / (ctx.var(1) + 1), ctx.rational(5)])
    assert WittVector.from_json(ctx, a.to_json()) == a
