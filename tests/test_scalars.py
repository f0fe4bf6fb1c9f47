"""Base-field arithmetic: canonical fractions, derivatives, parsing."""

from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings, strategies as st
from sympy import QQ

from wittcycles.errors import ContextMismatch, DivisionByZero, ParseError
from wittcycles.scalars import Context, FieldElem, parse_elem, split_unit


@pytest.fixture
def ctx():
    return Context(("x", "y"))


def test_cancellation(ctx):
    x = ctx.var(0)
    assert (x + 1) / x * x == x + 1


def test_additive_inverse_of_swapped_difference(ctx):
    x, y = ctx.gens()
    assert (1 / (x - y) + 1 / (y - x)).is_zero()


def test_inverse_reduces_by_gcd(ctx):
    x = ctx.var(0)
    a = (x ** 2 - 1) / (x + 1)
    assert a.inv() == 1 / (x - 1)


def test_derivatives(ctx):
    x, y = ctx.gens()
    assert (x ** 2 * y).diff(0) == 2 * x * y
    assert (1 / x).diff(0) == -1 / x ** 2
    assert ((x + y) / (x - y)).diff(1) == 2 * x / (x - y) ** 2


def test_split_unit(ctx):
    x = ctx.var(0)
    assert split_unit(ctx.zero) == (Fraction(1), ctx.rational(-1))
    assert split_unit(x) == (Fraction(1), x - 1)
    assert split_unit(ctx.rational(5)) == (Fraction(1), ctx.rational(4))
    for a in (ctx.rational(1), ctx.rational(-1), x + 2):
        u1, u2 = split_unit(a)
        assert not u2.is_zero() and ctx.rational(u1) + u2 == a


def test_parse_grammar(ctx):
    x, y = ctx.gens()
    assert parse_elem(ctx, "x^2*y - 3") == x ** 2 * y - 3
    assert parse_elem(ctx, "(x+y)/(x-y)") == (x + y) / (x - y)
    assert parse_elem(ctx, "-x^2") == -(x ** 2)
    # juxtaposition binds like '*'
    assert parse_elem(ctx, "3x") == 3 * x
    assert parse_elem(ctx, "2(x+1)y") == 2 * (x + 1) * y
    with pytest.raises(ParseError):
        parse_elem(ctx, "x +")
    with pytest.raises(ParseError):
        parse_elem(ctx, "z")


def test_division_by_zero(ctx):
    with pytest.raises(DivisionByZero):
        ctx.one / ctx.zero
    with pytest.raises(DivisionByZero):
        ctx.zero.inv()


def test_context_mismatch(ctx):
    other = Context(("x",))
    with pytest.raises(ContextMismatch):
        ctx.var(0) + other.var(0)


def test_rational_detection(ctx):
    assert ctx.rational(3, 4).is_rational()
    assert ctx.rational(3, 4).as_fraction() == Fraction(3, 4)
    assert not ctx.var(0).is_rational()


def test_json_roundtrip(ctx):
    x, y = ctx.gens()
    a = (x ** 2 + 3 * y) / (x - y)
    assert FieldElem.from_json(ctx, a.to_json()) == a


# -- differential test: both tiers against sympy's FracField ----------------
#
# Operands are built twice from the same terms: through Context.from_terms
# and division here, and through sympy's QQ(x, y) there.  Every result must
# be sympy's canonical (numer, denom) pair, and must sit in the polynomial
# tier (an int den) exactly when that denominator is constant.

DCTX = Context(("x", "y"))
FIELD = DCTX.field
FX, FY = FIELD.gens

_terms = st.lists(
    st.tuples(st.tuples(st.integers(0, 2), st.integers(0, 2)),
              st.fractions(min_value=-6, max_value=6, max_denominator=4)),
    max_size=4)
_ratio = st.tuples(_terms, st.one_of(st.just([((0, 0), Fraction(1))]), _terms))
_rational = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_settings = settings(max_examples=150, deadline=None, database=None)


def _pair(ratio):
    """(our element, sympy's element) for num_terms / den_terms; a zero
    denominator is replaced by 1."""
    num_terms, den_terms = ratio
    ours = [DCTX.from_terms(ts) for ts in (num_terms, den_terms)]
    theirs = [sum((QQ(c.numerator, c.denominator) * FX ** i * FY ** j
                   for (i, j), c in ts), FIELD.zero)
              for ts in (num_terms, den_terms)]
    if ours[1].is_zero():
        return ours[0], theirs[0]
    return ours[0] / ours[1], theirs[0] / theirs[1]


def _assert_canonical(ours, theirs):
    frac = ours.frac
    assert frac.numer == theirs.numer and frac.denom == theirs.denom
    assert (type(ours.den) is int) == theirs.denom.is_ground


_X_HALF = ([((1, 0), Fraction(1))], [((0, 0), Fraction(2))])
_TWO_OVER_3X = ([((0, 0), Fraction(2))], [((1, 0), Fraction(3))])
_NEG_CONST = ([((0, 0), Fraction(-3))], [((0, 0), Fraction(1))])
_ZERO = ([], [((0, 0), Fraction(1))])
_NEG_X = ([((1, 0), Fraction(-1))], [((0, 0), Fraction(1))])


@seed(1906)
@_settings
@given(_ratio, _ratio)
@example(_X_HALF, _TWO_OVER_3X)
@example(_NEG_CONST, _ZERO)
@example(_ZERO, _X_HALF)
def test_field_ops_match_sympy(ra, rb):
    (a, fa), (b, fb) = _pair(ra), _pair(rb)
    _assert_canonical(a, fa)
    _assert_canonical(b, fb)
    _assert_canonical(a + b, fa + fb)
    _assert_canonical(a - b, fa - fb)
    _assert_canonical(a * b, fa * fb)
    if not b.is_zero():
        _assert_canonical(a / b, fa / fb)
    for i, gen in enumerate((FX, FY)):
        _assert_canonical(a.diff(i), fa.diff(gen))


@seed(1907)
@_settings
@given(_ratio, st.integers(-3, 3))
@example(_NEG_CONST, -1)
@example(_NEG_X, -1)
@example(_TWO_OVER_3X, -2)
def test_powers_match_sympy(ra, n):
    a, fa = _pair(ra)
    if a.is_zero() and n <= 0:
        return
    # sympy's FracElement ** (negative) swaps numer and denom without
    # fixing the sign, so the reference for n < 0 is the cancelled quotient
    _assert_canonical(a ** n, fa ** n if n >= 0 else 1 / fa ** -n)


@seed(1908)
@_settings
@given(_ratio, _rational)
@example(_X_HALF, Fraction(-4, 3))
@example(_ZERO, Fraction(5, 2))
def test_rational_scaling_matches_sympy(ra, c):
    a, fa = _pair(ra)
    fc = QQ(c.numerator, c.denominator)
    _assert_canonical(DCTX.rational(c.numerator, c.denominator), FIELD(fc))
    _assert_canonical(DCTX.rational(c), FIELD(fc))
    _assert_canonical(a.scale(c), fa * fc)
    _assert_canonical(a * c, fa * fc)
    _assert_canonical(a * c.numerator, fa * c.numerator)
    if c:
        _assert_canonical(a / c, fa / fc)
