"""Relative Milnor K-theory: normal forms, theta, products, restriction."""

from fractions import Fraction

import pytest

from wittcycles.errors import NoPrincipalEntry, NotAUnit
from wittcycles.forms import CanonRelForm, dlog
from wittcycles.relmilnor import RelSymbol, mult_by_absolute, normal_form, theta
from wittcycles.scalars import Context
from wittcycles.trunc import TruncElem, parse_trunc


@pytest.fixture
def ctx():
    return Context(("x", "y"))


def principal(ctx, m, text):
    return parse_trunc(ctx, m, text)


def test_basic_symbol_values(ctx):
    x = ctx.var(0)
    cls = normal_form(RelSymbol([principal(ctx, 1, "1+t"),
                                 TruncElem.constant(x, 1)]))
    assert cls.comps == (dlog(x),)
    cls = normal_form(RelSymbol([principal(ctx, 2, "1-3t"),
                                 TruncElem.constant(x, 2)]))
    assert cls.comps == (dlog(x).scale(-3), dlog(x).scale(Fraction(-9, 2)))


def test_square_of_principal_vanishes(ctx):
    u = principal(ctx, 3, "1 + x*t + 2t^3")
    assert normal_form(RelSymbol([u, u])).is_zero()


def test_principal_entry_independence(ctx):
    # either principal entry may carry the log; results agree up to sign
    u = principal(ctx, 2, "1 + x*t")
    v = principal(ctx, 2, "1 - t + t^2")
    assert normal_form(RelSymbol([u, v])) == -normal_form(RelSymbol([v, u]))


def test_bilinearity(ctx):
    u = principal(ctx, 2, "1 + x*t")
    v = principal(ctx, 2, "1 + 2t")
    w = TruncElem.constant(ctx.var(1), 2)
    lhs = normal_form(RelSymbol([u * v, w]))
    rhs = normal_form([RelSymbol([u, w]), RelSymbol([v, w])])
    assert lhs == rhs


def test_no_principal_entry(ctx):
    x = ctx.var(0)
    with pytest.raises(NoPrincipalEntry):
        normal_form(RelSymbol([TruncElem.constant(x, 1),
                               TruncElem.constant(x + 1, 1)]))
    with pytest.raises(NotAUnit):
        RelSymbol([TruncElem.t(ctx, 2)])


def test_theta_values(ctx):
    x = ctx.var(0)
    sym = theta(TruncElem.t(ctx, 1), [x])
    assert sym.entries[0] == principal(ctx, 1, "1+t")
    assert sym.entries[1] == TruncElem.constant(x, 1)
    # a = 0 gives the identity symbol, class 0
    zero_sym = theta(TruncElem.zero(ctx, 2), [x])
    assert normal_form(zero_sym).is_zero()


def test_theta_roundtrip_instance(ctx):
    x, y = ctx.gens()
    a = TruncElem(ctx, 3, [ctx.zero, x, ctx.rational(2), y])
    cls = normal_form(theta(a, [y]))
    want = [dlog(y).scale(c) for c in a.comps[1:]]
    assert cls == CanonRelForm(ctx, 1, 3, want)


def test_mult_by_absolute(ctx):
    x, y = ctx.gens()
    xi = normal_form(RelSymbol([principal(ctx, 1, "1+t"),
                                TruncElem.constant(x, 1)]))
    got = mult_by_absolute([y], xi)
    assert got.comps == (dlog(x).wedge(dlog(y)),)
    via_symbol = normal_form(RelSymbol([principal(ctx, 1, "1+t"),
                                        TruncElem.constant(x, 1),
                                        TruncElem.constant(y, 1)]))
    assert got == via_symbol
    assert mult_by_absolute([ctx.rational(7)], xi).is_zero()
    assert mult_by_absolute([x], xi).is_zero()


def test_restrict_class(ctx):
    x = ctx.var(0)
    xi = normal_form(RelSymbol([principal(ctx, 2, "1-3t"),
                                TruncElem.constant(x, 2)]))
    got = xi.restrict(1)
    assert got.comps == (dlog(x).scale(-3),)
    assert xi.restrict(2) == xi


@pytest.mark.parametrize("m", [2, 3, 4])
def test_antisymmetry_in_the_last_two_entries(ctx, m):
    # v and w have nonzero t^0 differentials and nonzero dt parts, so the
    # sign of moving a 1-form past dt decides the answer
    u = principal(ctx, m, "1 + x*t + y*t^2")
    v = parse_trunc(ctx, m, "x + (1+y)*t")
    w = parse_trunc(ctx, m, "1 + y + x*t - t^2")
    xi = normal_form(RelSymbol([u, v, w]))
    assert not xi.is_zero()
    assert xi == -normal_form(RelSymbol([u, w, v]))


def test_class_group_operations(ctx):
    x = ctx.var(0)
    xi = normal_form(RelSymbol([principal(ctx, 2, "1+t"),
                                TruncElem.constant(x, 2)]))
    assert (xi - xi).is_zero()
    assert xi + xi == xi.scale(2)
    assert (-xi).scale(-1) == xi


def test_json_roundtrip(ctx):
    x = ctx.var(0)
    sym = RelSymbol([principal(ctx, 2, "1+t"), TruncElem.constant(x, 2)],
                    Fraction(3, 2))
    assert RelSymbol.from_json(ctx, sym.to_json()).entries == sym.entries
    xi = normal_form(sym)
    assert CanonRelForm.from_json(ctx, xi.to_json()) == xi
    with pytest.raises(ValueError):
        CanonRelForm.from_json(ctx, {**xi.to_json(), "degree": 3})
