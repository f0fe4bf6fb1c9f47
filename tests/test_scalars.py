"""Base-field arithmetic: canonical fractions, derivatives, parsing,
interned contexts and the moves to and from the u-line."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings, strategies as st
from sympy import QQ

from wittcycles.errors import ContextMismatch, DivisionByZero, ParseError
from wittcycles.addchow import CycleGen
from wittcycles.milnorfield import FieldSymbol
from wittcycles.relmilnor import RelSymbol
from wittcycles import scalars
from wittcycles.scalars import (_BASE, _P, CERT_MAX_DEGREE, Context, FieldElem,
                                _cofactors, fraction_text, parse_elem, parse_fraction)
from wittcycles.trunc import TruncElem

from fracfield import qq_field, to_frac


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


def test_elem_coerces_text_through_the_reader(ctx):
    x, y = ctx.gens()
    assert ctx.elem("x/(y+1)") == x / (y + 1) and ctx.elem(Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(ParseError, match="cannot coerce 1.5"):
        ctx.elem(1.5)


def test_division_by_zero(ctx):
    with pytest.raises(DivisionByZero):
        ctx.one / ctx.zero
    with pytest.raises(DivisionByZero):
        ctx.zero.inv()


def test_context_mismatch(ctx):
    other = Context(("x",))
    with pytest.raises(ContextMismatch):
        ctx.var(0) + other.var(0)
    with pytest.raises(ContextMismatch):
        ctx.elem(other.var(0))
    with pytest.raises(ContextMismatch):
        Context(("y", "x")).check(ctx)
    assert ctx.var(0) != other.var(0)


def test_contexts_are_interned(ctx):
    assert Context(("x", "y")) is Context(["x", "y"]) is ctx
    assert Context(()) is Context([])
    assert Context(("y", "x")) is not ctx
    assert ctx.drop(1) is Context(("x",)) and ctx.drop(0).names == ("y",)
    with pytest.raises(ParseError):
        Context(("x", "x"))


def _seeded_fraction(ctx, rng):
    """A nonzero element with rational coefficients; over a context with
    variables its denominator is not constant."""
    def poly(terms):
        total = ctx.zero
        for _ in range(terms):
            term = ctx.rational(rng.randint(-6, 6), rng.randint(1, 4))
            for x in ctx.gens():
                term = term * x ** rng.randint(0, 2)
            total = total + term
        return total
    while True:
        num, den = poly(3), poly(2)
        if num and den and (not ctx.r or type((num / den).den) is not int):
            return num / den


@pytest.mark.parametrize("names", [(), ("x",), ("x", "y")])
def test_drop_lift_split_round_trip(names):
    """lift puts a base element into the u-line, split takes the
    coefficients of u back out, and drop names their context; u is tried
    at every position."""
    base = Context(names)
    rng = random.Random(91 + base.r)
    for pos in range(base.r + 1):
        line = Context(names[:pos] + ("u",) + names[pos:])
        assert line.drop(pos) is base
        u = line.var(pos)
        for _ in range(10):
            a = _seeded_fraction(base, rng)
            lifted = line.lift(a)
            assert lifted.ctx is line and type(lifted.den) is type(a.den)
            assert base.split(lifted.num, pos) == {0: FieldElem(base, a.num)}
            assert base.split(lifted.den_poly(), pos) == {0: FieldElem(base, a.den_poly())}
            # a polynomial in u with base coefficients: split undoes lift
            coeffs = {e: _seeded_fraction(base, rng) for e in (0, 1, 3)}
            f = sum((line.lift(c) * u ** e for e, c in coeffs.items()), line.zero)
            parts = base.split(f.num, pos)
            den = base.split(f.den_poly(), pos)
            assert list(den) == [0]
            assert {e: c / den[0] for e, c in parts.items()} == coeffs
            assert sum((line.lift(c) * u ** e for e, c in parts.items()),
                       line.zero) == FieldElem(line, f.num)


@pytest.mark.parametrize("value, text", [
    (Fraction(3), "3/1"), (Fraction(-3, 4), "-3/4"), (Fraction(0), "0/1"),
    (Fraction(10 ** 30 + 1, 7), "%d/7" % (10 ** 30 + 1))])
def test_fraction_text_round_trip(value, text):
    assert fraction_text(value) == text
    assert parse_fraction(text) == value


def test_parse_fraction():
    assert parse_fraction("3") == 3 and parse_fraction(" -3/4 ") == Fraction(-3, 4)
    assert parse_fraction("6/-4") == Fraction(-3, 2)
    assert fraction_text(parse_fraction("6/4")) == "3/2"
    for text in ("1/2/3", "x", "", "1/", "/2", "1.5"):
        with pytest.raises(ParseError, match="malformed coefficient"):
            parse_fraction(text)
    with pytest.raises(ParseError, match="coefficient 1/0 has denominator 0"):
        parse_fraction("1/0")


def test_symbols_read_slash_free_coefficients(ctx):
    x, y = ctx.gens()
    sym = FieldSymbol(ctx, [x, 1 + y], Fraction(-3, 2))
    data = sym.to_json()
    assert data["coef"] == "-3/2"
    for cls, obj in ((FieldSymbol, sym),
                     (RelSymbol, RelSymbol([TruncElem.one(ctx, 2)], 5)),
                     (CycleGen, CycleGen([ctx.one, x], [y], 4))):
        data = obj.to_json()
        assert cls.from_json(ctx, data).coef == obj.coef
        data["coef"] = "3"
        assert cls.from_json(ctx, data).coef == 3
        data["coef"] = "1/2/3"
        with pytest.raises(ParseError):
            cls.from_json(ctx, data)


SX, SY = Context(("x", "y")).gens()

SYMBOLS = [
    # (id, symbol, repr, JSON text), one symbol over F and one over F_m
    ("field", FieldSymbol(SX.ctx, [SX, (1 + SY) / (SX - 2)], Fraction(-3, 2)),
     "-3/2*{x, (y + 1)/(x - 2)}",
     '{"coef": "-3/2", "entries": [{"num": [[[1, 0], "1/1"]], "den": [[[0, 0], "1/1"]]}, '
     '{"num": [[[0, 0], "1/1"], [[0, 1], "1/1"]], '
     '"den": [[[0, 0], "-2/1"], [[1, 0], "1/1"]]}]}'),
    ("relative", RelSymbol([TruncElem(SX.ctx, 2, [SX.ctx.one, SX, SX.ctx.one]),
                            TruncElem.constant(SY / 2, 2)], 5),
     "5*{(1) + (x)*t + (1)*t^2, (y/2)}",
     '{"coef": "5/1", "entries": [{"level": 2, "coeffs": ['
     '{"num": [[[0, 0], "1/1"]], "den": [[[0, 0], "1/1"]]}, '
     '{"num": [[[1, 0], "1/1"]], "den": [[[0, 0], "1/1"]]}, '
     '{"num": [[[0, 0], "1/1"]], "den": [[[0, 0], "1/1"]]}]}, '
     '{"level": 2, "coeffs": [{"num": [[[0, 1], "1/1"]], "den": [[[0, 0], "2/1"]]}, '
     '{"num": [], "den": [[[0, 0], "1/1"]]}, {"num": [], "den": [[[0, 0], "1/1"]]}]}]}'),
]


@pytest.mark.parametrize("sym, text, json_text", [row[1:] for row in SYMBOLS],
                         ids=[row[0] for row in SYMBOLS])
def test_symbol_repr_json_and_roundtrip(sym, text, json_text):
    assert repr(sym) == text and sym.json_text() == json_text
    back = type(sym).from_json(sym.ctx, sym.to_json())
    assert (back.entries, back.coef, back.degree) == (sym.entries, sym.coef, 2)
    assert back.json_text() == json_text


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
FIELD = qq_field(DCTX)
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
    frac = to_frac(ours)
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


# -- the printer against sympy's printer for its rational function field ----

PRINT_GOLDENS = ["(6*y**2 + x)/(2*x*y + 6)", "-x*y/(3*x + 2*y)", "x/2", "-1/x",
                 "2/(3*x)", "(x + 1)/2", "-5/3"]


@pytest.mark.parametrize("text", PRINT_GOLDENS)
def test_printer_goldens(ctx, text):
    a = parse_elem(ctx, text.replace("**", "^"))
    assert repr(a) == str(to_frac(a)) == text


def _printed_part(ctx, rng, kind):
    """A nonzero polynomial-tier element: an integer, a signed variable, a
    single term or a sum of up to four terms."""
    if kind == "int" or not ctx.r:
        return ctx.rational(rng.choice((-1, 1)) * rng.randint(1, 12))
    if kind == "gen":
        return rng.choice((-1, 1)) * rng.choice(ctx.gens())
    count = 1 if kind == "term" else rng.randint(2, 4)
    while True:
        total = ctx.zero
        for _ in range(count):
            term = ctx.rational(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))
            for x in ctx.gens():
                term = term * x ** rng.randint(0, 2)
            total = total + term
        if total:
            return total


@pytest.mark.parametrize("r", range(5))
def test_printer_matches_sympy(r):
    """Every numerator kind over every denominator kind, in 0 to 4
    variables: integer and polynomial denominators print in the
    polynomial tier, variables, single terms and sums in the fraction
    tier, and negative constants sit over all of them."""
    ctx = Context(("x", "y", "z", "w")[:r])
    rng = random.Random(2011 + r)
    kinds = ("int", "gen", "term", "sum")
    tiers = set()
    for _ in range(60):
        for top in kinds:
            for bottom in kinds:
                a = _printed_part(ctx, rng, top) / _printed_part(ctx, rng, bottom)
                tiers.add(type(a.den) is int)
                assert repr(a) == str(to_frac(a)), (top, bottom)
    assert tiers == ({True, False} if r else {True})


# -- differential test: the coprimality certificate against sympy's gcd -------
#
# f = s*p and g = s*q share the factor s of one kind.  _cofactors must give
# sympy's (gcd, f/gcd, g/gcd) up to one common sign: when the mod-p
# certificate settles the gcd, when it falls back, when f or g is one
# term ("monomial" shares a one-term factor with a negative coefficient),
# and at degrees on both sides of CERT_MAX_DEGREE, up to 10^4.

_CERT_RINGS = [Context(names).ring for names in (("x",), ("x", "y"), ("x", "y", "z"))]
_cert_terms = st.lists(st.tuples(st.tuples(*[st.integers(0, 2)] * 3),
                                 st.integers(-6, 6)), max_size=4)
_SHARED = ("none", "factor", "content", "monomial", "repeated", "vanishing", "zero")


def _cert_poly(ring, terms):
    return sum((c * ring.from_dict({mon[:ring.ngens]: 1}) for mon, c in terms),
               ring.zero)


def _vanishing(ring, at_point):
    """A factor every x_j-leading coefficient of which vanishes at the
    certificate's point modulo _P, so that g loses degree there: either
    _P*x1*...*xr + 1, or (x1 - c1)*...*(xr - cr) + 1 at the point c when
    there are two variables or more."""
    if not at_point or ring.ngens == 1:
        return _P * ring.from_dict({(1,) * ring.ngens: 1}) + 1
    prod = ring.one
    for i, x in enumerate(ring.gens):
        prod *= x - pow(_BASE, i + 1, _P)
    return prod + 1


def _signed(triple):
    h, cff, cfg = triple
    return (-h, -cff, -cfg) if h and h.LC < 0 else triple


_NON_MONIC = [((1, 0, 0), 3), ((0, 1, 0), 2)]     # 3x + 2y
_X_PLUS_1 = [((1, 0, 0), 1), ((0, 0, 0), 1)]
_Y = [((0, 1, 0), 1)]
_Z_PLUS_2 = [((0, 0, 1), 1), ((0, 0, 0), 2)]


def _x_to(n, *rest):
    """x^n plus the given terms."""
    return [((n, 0, 0), 1), *rest]


@seed(1909)
@_settings
@given(st.integers(1, 3), _cert_terms, _cert_terms, _cert_terms,
       st.sampled_from(_SHARED), st.integers(2, 30))
@example(2, _X_PLUS_1, _Y, _NON_MONIC, "factor", 2)
@example(2, _X_PLUS_1, _Y, _NON_MONIC, "repeated", 3)
@example(3, _X_PLUS_1, _Z_PLUS_2, [], "content", 6)
@example(1, _X_PLUS_1, [((0, 0, 0), 1)], [((1, 0, 0), 2), ((0, 0, 0), 1)], "repeated", 2)
@example(1, _X_PLUS_1, [((2, 0, 0), 1)], [], "vanishing", 2)
@example(2, _X_PLUS_1, _Y, [], "vanishing", 3)
@example(3, _X_PLUS_1, _Z_PLUS_2, [], "vanishing", 2)
@example(2, _X_PLUS_1, _Y, [], "vanishing", 5)
@example(2, [], _NON_MONIC, [], "zero", 2)
@example(2, [((2, 1, 0), -3)], _X_PLUS_1, [], "monomial", 4)
@example(3, [((1, 0, 2), 5)], [((0, 3, 1), -2)], [], "monomial", 6)
@example(1, [((3, 0, 0), -2)], [((1, 0, 0), 4)], [], "content", 6)
@example(2, [((0, 2, 0), -5)], _NON_MONIC, [], "content", 10)
@example(3, [((0, 2, 1), 1)], _Z_PLUS_2, [], "none", 2)
@example(2, _x_to(64, *_Y), _x_to(64, ((1, 1, 0), 1), ((0, 0, 0), 1)), [], "none", 2)
@example(2, _x_to(30, *_Y), _x_to(30, ((1, 1, 0), 1)), _x_to(34, ((0, 1, 0), -2)),
         "factor", 2)
@example(1, _x_to(65, ((0, 0, 0), 1)), _x_to(65, ((1, 0, 0), 1)), [], "none", 2)
@example(2, _x_to(25, ((0, 0, 0), 1)), _x_to(25, ((1, 1, 0), 1)), _x_to(40, ((0, 0, 0), 3)),
         "factor", 2)
@example(2, _x_to(10 ** 4, *_Y), _x_to(10 ** 4, ((1, 1, 0), 1), ((0, 0, 0), 1)), [],
         "none", 2)
@example(1, _x_to(5000, ((0, 0, 0), 1)), _x_to(5000, ((1, 0, 0), 1)),
         _x_to(5000, ((0, 0, 0), -7)), "factor", 2)
def test_cofactors_match_sympy(r, p_terms, q_terms, s_terms, kind, k):
    ring = _CERT_RINGS[r - 1]
    p, q, s = (_cert_poly(ring, ts) for ts in (p_terms, q_terms, s_terms))
    s = s or ring(k)
    shared = {"none": ring.one, "factor": s, "content": ring(k),
              "monomial": ring({(k % 3,) + (1,) * (ring.ngens - 1): -k}),
              "repeated": s ** (k % 3 + 2) * k, "zero": ring.one,
              "vanishing": _vanishing(ring, k % 2) * s}[kind]
    f = ring.zero if kind == "zero" else shared * p
    g = shared * q
    assert _signed(_cofactors(f, g)) == _signed(f.cofactors(g))
    assert _signed(_cofactors(g, f)) == _signed(g.cofactors(f))


def test_high_degree_operands_skip_the_certificate(monkeypatch):
    """Above CERT_MAX_DEGREE the dense images are never built."""
    def refuse(poly, j, degree):
        raise AssertionError("built an image of degree %d" % degree)

    ring = _CERT_RINGS[1]
    x, y = ring.gens
    monkeypatch.setattr(scalars, "_image", refuse)
    for n in (CERT_MAX_DEGREE + 1, 10 ** 4):
        f, g = x ** n + y, x ** n + x * y + 1
        assert _signed(_cofactors(f, g)) == (ring.one, f, g)
    with pytest.raises(AssertionError, match="image of degree %d" % CERT_MAX_DEGREE):
        _cofactors(x ** CERT_MAX_DEGREE + y, x ** CERT_MAX_DEGREE + x * y + 1)


def test_coprime_fractions_take_no_polynomial_gcd(ctx, monkeypatch):
    """A fraction-tier product and sum whose cross gcds are 1 are settled by
    the certificate; a shared factor still cancels to the canonical form."""
    x, y = ctx.gens()
    a, b = (x + 1) / (y + 2), (3 * y - x) / (2 * x + 5)
    c, d = 1 / (x + y), x / (y + 3)
    calls = []
    original = type(x.num).cofactors
    monkeypatch.setattr(type(x.num), "cofactors",
                        lambda f, g: calls.append((f, g)) or original(f, g))
    assert str(a * b) == "(-x**2 + 3*x*y - x + 3*y)/(2*x*y + 4*x + 5*y + 10)"
    assert str(c + d) == "(x**2 + x*y + y + 3)/(x*y + y**2 + 3*x + 3*y)"
    assert not calls
    product = a * ((y + 2) / (x - 3))
    assert (product.num, product.den) == ((x + 1).num, (x - 3).num)
    assert calls
