"""The u-line algorithms read FieldElem's integer num/den directly.

Each direct read is checked here against the route it replaced, written
out below: convert to sympy's FracField with ``to_frac`` (the reference
route in ``fracfield.py``), take the terms of ``numer``/``denom`` and
rebuild them with ``Context.from_terms``.
Valuations are checked against the two order routes they replaced:
synthetic division by (u - c) over the base field (``UPoly``) and the
factor-multiplicity loop on the FracField numerator and denominator.  The
wedge of forms over F_m is checked against the three truncated loops it
replaced, Henrici's sum against the gcd over the whole product of the
denominators, the one division on F_m against the inverse loop and the
log recurrence it replaced, its packed kernel against its loop, dlog on
F_m against the inverse wedged with du, gamma against the product of
its factors, the derivative against the gcd over the square of the
denominator, the expression reader against the parser it replaced and
the JSON writer against the to_json bodies it replaced.  The last tests
pin that no module of the package uses sympy's rational function field,
that only ``scalars`` moves polynomials between contexts, writes the
"p/q" coefficient text, reads polynomials on the u-line and calls
sympy's polynomial gcd, and that no module reaches a private name of
another."""

import ast
import json
import random
import re
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from sympy.polys.rings import PolyElement

from wittcycles import cli
from wittcycles.addchow import CycleGen, ParamCurve, boundary, modulus_check_curve
from wittcycles.drw import drw_d, phi
from wittcycles.errors import (DivisionByZero, NonRationalBoundary, NonRationalPoint,
                               NonRationalSupport, NotAUnit, ParseError, ResourceLimit)
from wittcycles.forms import CanonRelForm, DiffForm, FormOnTrunc, FormTuple
from wittcycles.milnorfield import (FieldSymbol, Valuation, rational_support,
                                    gersten_boundary)
from wittcycles.relmilnor import RelSymbol
from wittcycles.scalars import (MAX_NESTING, Context, FieldElem, _tokenize, fraction_text,
                                parse_elem, series_quotient, write_json)
from wittcycles.trunc import (TruncElem, dlog_split, embed_form, log_derivative, log_t,
                              parse_trunc, trunc_dlog)
from wittcycles.verify import Sampler
from wittcycles.witt import WittVector, gamma, gamma_inv, ghost, unghost, witt_decompose

from fracfield import to_frac

# -- the FracField route, as it was ------------------------------------------


def old_lift(ctx, a, upos):
    # one change to the old code: the tail is cut at a.ctx.r.  Uncut, the
    # unused generator of a base without variables made every monomial one
    # too wide, and from_terms raised ParseError.
    def up(terms):
        return [(mon[:upos] + (0,) + mon[upos:a.ctx.r], coef) for mon, coef in terms]
    return (ctx.from_terms(up(to_frac(a).numer.terms()))
            / ctx.from_terms(up(to_frac(a).denom.terms())))


def old_split(base, poly, upos):
    buckets = {}
    for mon, coef in poly.terms():
        buckets.setdefault(mon[upos], []).append((mon[:upos] + mon[upos + 1:], coef))
    return {e: base.from_terms(ts) for e, ts in buckets.items()}


class UPoly:
    """A polynomial in u with base-field coefficients: the synthetic
    division route that valuations used before they divided by the
    point's integer polynomial."""

    def __init__(self, base, coeffs):
        self.base = base
        self.coeffs = {e: c for e, c in coeffs.items() if not c.is_zero()}

    def degree(self):
        return max(self.coeffs) if self.coeffs else -1

    def eval(self, c):
        total = self.base.zero
        for e in range(self.degree(), -1, -1):
            total = total * c + self.coeffs.get(e, self.base.zero)
        return total

    def div_linear(self, c):
        """Quotient and remainder on synthetic division by (u - c)."""
        d = self.degree()
        if d < 0:
            return UPoly(self.base, {}), self.base.zero
        q = {}
        acc = self.coeffs.get(d, self.base.zero)
        for e in range(d, 0, -1):
            q[e - 1] = acc
            acc = acc * c + self.coeffs.get(e - 1, self.base.zero)
        return UPoly(self.base, q), acc

    def root_multiplicity(self, c):
        """(k, stripped) with self = (u-c)^k * stripped, stripped(c) != 0."""
        k = 0
        cur = self
        while cur.coeffs:
            q, rem = cur.div_linear(c)
            if not rem.is_zero():
                break
            k += 1
            cur = q
        return k, cur

    def reversed(self):
        """Coefficient reversal by the exact degree: v^deg * self(1/v)."""
        d = self.degree()
        return UPoly(self.base, {d - e: c for e, c in self.coeffs.items()})


def old_ord_residue(v, f):
    num = UPoly(v.base, old_split(v.base, to_frac(f).numer, v.upos))
    den = UPoly(v.base, old_split(v.base, to_frac(f).denom, v.upos))
    if v.fac is None:
        zero = v.base.zero
        return (den.degree() - num.degree(),
                num.reversed().eval(zero) / den.reversed().eval(zero))
    a, num = num.root_multiplicity(v.point)
    b, den = den.root_multiplicity(v.point)
    return a - b, num.eval(v.point) / den.eval(v.point)


def old_parse_trunc(ctx, level, text):
    inner = Context(ctx.names + ("t",))
    value = parse_elem(inner, text)
    tpos = inner.r - 1
    if any(mon[tpos] for mon, _ in to_frac(value).denom.terms()):
        raise ParseError("t may not appear in denominators: %r" % text)
    den = ctx.from_terms((mon[:tpos], c) for mon, c in to_frac(value).denom.terms())
    coeffs = [ctx.zero] * (level + 1)
    for mon, coef in to_frac(value).numer.terms():
        e = mon[tpos]
        if e <= level:
            coeffs[e] = coeffs[e] + ctx.from_terms([(mon[:tpos], coef)]) / den
    return TruncElem(ctx, level, coeffs)


def _factor_multiplicity(poly, fac):
    """Multiplicity of the irreducible polynomial fac in poly."""
    k = 0
    while poly:
        q, r = divmod(poly, fac)
        if r:
            break
        k += 1
        poly = q
    return k


def old_ord_at_factor(g, fac):
    return (_factor_multiplicity(to_frac(g).numer, fac)
            - _factor_multiplicity(to_frac(g).denom, fac))


def old_nonrational(values, upos):
    base = values[0].ctx.drop(upos)
    out = []
    for y in values:
        for poly in (to_frac(y).numer, to_frac(y).denom):
            for fac, _ in poly.factor_list()[1]:
                if UPoly(base, old_split(base, fac, upos)).degree() > 1:
                    out.append(str(fac))
    return out


# -- seeded fraction-tier elements -------------------------------------------


def _poly(ctx, rng, terms, maxdeg=2):
    return ctx.from_terms(
        [(tuple(rng.randint(0, maxdeg) for _ in range(ctx.r)),
          Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
         for _ in range(terms)])


def _fraction(ctx, rng):
    """A nonzero element whose denominator is not constant (when ctx has
    variables) and whose coefficients are not integers."""
    while True:
        num, den = _poly(ctx, rng, 3), _poly(ctx, rng, 2)
        if num and den and (not ctx.r or type((num / den).den) is not int):
            return num / den


BASES = [Context(()), Context(("x",)), Context(("x", "y"))]


@pytest.mark.parametrize("base", BASES, ids=repr)
def test_lift_and_split_match_from_terms(base):
    rng = random.Random(31 + base.r)
    for upos in range(base.r + 1):
        names = base.names[:upos] + ("u",) + base.names[upos:]
        ctx = Context(names)
        assert ctx.drop(upos) is base
        for _ in range(20):
            a = _fraction(base, rng)
            lifted = ctx.lift(a)
            assert lifted == old_lift(ctx, a, upos)
            assert type(lifted.den) is type(a.den)
            f = _fraction(ctx, rng) * lifted
            for poly, qpoly in ((f.num, to_frac(f).numer), (f.den_poly(), to_frac(f).denom)):
                assert base.split(poly, upos) == old_split(base, qpoly, upos)


@pytest.mark.parametrize("base", BASES, ids=repr)
def test_ord_residue_matches_from_terms(base):
    rng = random.Random(77 + base.r)
    upos = base.r
    ctx = Context(base.names + ("u",))
    u = ctx.var(upos)
    points = [base.zero, base.rational(-2)] + [_fraction(base, rng) for _ in range(2)]
    for c in points:
        lin = u - ctx.lift(c)
        for _ in range(8):
            f = _fraction(ctx, rng) * lin ** rng.randint(-2, 2)
            for v in (Valuation.finite(ctx, upos, c), Valuation.infinity(ctx, upos)):
                assert v.ord_residue(f) == old_ord_residue(v, f)
                assert repr(v.ord_residue(f)) == repr(old_ord_residue(v, f))


@pytest.mark.parametrize("base", BASES[1:], ids=repr)
def test_valuation_matches_synthetic_division(base):
    """ord and ord_residue divide by the point's integer polynomial; the
    reference strips (u - c) by synthetic division over the base field.
    Points with a denominator (x/2 and the fraction tier) need the q^ord
    factor of the residue, and multiplicities from -3 to 3 put repeated
    factors in the numerator and in the denominator."""
    rng = random.Random(4242 + base.r)
    upos = 1
    ctx = Context(base.names[:1] + ("u",) + base.names[1:])
    u, x = ctx.var(upos), ctx.var(0)
    bx = base.var(0)
    points = [base.zero, base.rational(-2), bx / 2, _fraction(base, rng)]
    inf = Valuation.infinity(ctx, upos)
    for c in points:
        v = Valuation.finite(ctx, upos, c)
        lin = u - ctx.lift(c)
        for k in (-3, -2, 2, 3, rng.randint(-1, 1)):
            for _ in range(3):
                g = _fraction(ctx, rng)
                f = g * lin ** k
                want = old_ord_residue(v, f)
                assert want[0] == k + old_ord_residue(v, g)[0]
                assert v.ord_residue(f) == want and v.ord(f) == want[0]
                assert repr(v.ord_residue(f)) == repr(want)
                assert inf.ord_residue(f) == old_ord_residue(inf, f)
                assert inf.ord(f) == inf.ord_residue(f)[0]
    # the support's valuations carry the factor as sympy returns it, here
    # with a negative or non-unit coefficient of u; the residue takes that
    # coefficient to the power ord
    lines = [x - 2 * u, 3 * u + x * x, 1 - u]
    vals, _ = rational_support(ctx, [lines[0] ** 3 / (lines[1] * lines[2]) ** 2], upos)
    assert len(vals) == 4 and vals[-1].fac is None
    for v in vals:
        for k in (-2, -1, 1, 2):
            f = _fraction(ctx, rng) * lines[k % 3] ** k
            assert v.ord_residue(f) == old_ord_residue(v, f)
            assert repr(v.ord_residue(f)) == repr(old_ord_residue(v, f))
    # a closed point of degree 2: ord only, counted against the reference
    # multiplicity loop on the FracField numerator and denominator
    quad = 2 * u ** 2 - x
    v = Valuation(ctx, upos, quad.num)
    (qfac, _), = to_frac(quad).numer.factor_list()[1]
    for k in (-3, -2, 2, 3):
        g = _fraction(ctx, rng)
        f = g * quad ** k
        assert v.ord(f) == old_ord_at_factor(f, qfac) == k + old_ord_at_factor(g, qfac)
    with pytest.raises(NonRationalPoint):
        v.ord_residue(quad)


@pytest.mark.parametrize("names", [(), ("x",), ("x", "y")])
def test_parse_trunc_matches_from_terms(names):
    ctx = Context(names)
    rng = random.Random(2718 + len(names))
    gens = list(names) + ["t"]

    def poly_text(terms, with_t):
        out = []
        for _ in range(terms):
            mon = "*".join("%s^%d" % (g, rng.randint(0, 6 if g == "t" else 2))
                           for g in gens if with_t or g != "t")
            out.append("%d/%d*%s" % (rng.randint(-6, 6), rng.randint(1, 4), mon or "1"))
        return " + ".join(out)

    for _ in range(25):
        level = rng.randint(1, 4)
        # t-powers up to 6 run above the level; the denominator is t-free
        text = "(%s)/(%s)" % (poly_text(4, True), poly_text(2, False) if names else "3/2")
        try:
            want = old_parse_trunc(ctx, level, text)
        except DivisionByZero:
            with pytest.raises(DivisionByZero):
                parse_trunc(ctx, level, text)
            continue
        assert parse_trunc(ctx, level, text) == want
    with pytest.raises(ParseError, match="t may not appear in denominators"):
        parse_trunc(ctx, 2, "1/(1+t)")


@pytest.fixture
def ectx():
    return Context(("x", "y", "u"))


def test_non_monic_factor_orders(ectx):
    x, y, u = ectx.gens()
    upper = (2 * u - x) ** 2 * (u + 3) / (y * u + 1)
    lower = (u + 3) / ((2 * u - x) ** 2 * (y - u))
    zfac = (2 * u - x).num
    (qfac, mult), = [(f, k) for f, k in to_frac(u - x / 2).numer.factor_list()[1]]
    assert mult == 1
    v = Valuation(ectx, 2, zfac)
    assert v.ord(upper) == old_ord_at_factor(upper, qfac) == 2
    assert v.ord(lower) == old_ord_at_factor(lower, qfac) == -2
    assert v.ord(upper / lower) == 4
    assert Valuation.finite(ectx, 2, ectx.drop(2).var(0) / 2).ord(upper) == 2


def test_modulus_check_with_non_monic_factor(ectx):
    x, y, u = ectx.gens()
    # g_0 has a double zero on 2u = x and a simple pole at infinity
    g0 = (2 * u - x) ** 2 / (u + 3)
    # ord(g_1 - 1) = 6 on 2u = x: the inequality 6 >= 2(m + 1) holds up to m = 2
    g1 = 1 + (2 * u - x) ** 6 * (u + y) / (3 * u - 1)
    assert [modulus_check_curve(ParamCurve(ectx, 2, [g0, g1]), m)
            for m in range(1, 5)] == [True, True, False, False]
    # the factor in the denominator of g_1 - 1: ord -2, never enough
    g2 = 1 + (u + y) / (2 * u - x) ** 2
    assert not modulus_check_curve(ParamCurve(ectx, 2, [g0, g2]), 1)
    # g_0 with a zero at infinity: the orders there are degree differences
    h0 = 1 / (2 * u - x)
    h1 = 1 + 1 / ((2 * u - x) ** 3 * (u + y))
    assert [modulus_check_curve(ParamCurve(ectx, 2, [h0, h1]), m)
            for m in range(1, 5)] == [True, True, True, False]


def test_nonrational_factor_strings(ectx):
    x, y, u = ectx.gens()
    g1 = (2 * u ** 2 - x) * (2 * u - x) ** 2 / ((3 * u ** 2 + y) * (u + 1))
    g2 = (u ** 3 - y) / (2 * u - x)
    want = ["-2*u**2 + x", "3*u**2 + y"]
    assert old_nonrational([g1], 2) == want
    with pytest.raises(NonRationalBoundary) as err:
        boundary(ParamCurve(ectx, 2, [(u + 5) / (u + 3), g1]))
    assert str(err.value) == "cube coordinates vanish outside rational points: %s" % want
    _, nonrational = rational_support(ectx, [g1, g2], 2)
    assert nonrational == old_nonrational([g1, g2], 2) == want + ["-u**3 + y"]
    with pytest.raises(NonRationalSupport) as err:
        gersten_boundary(FieldSymbol(ectx, [g1, g2]), 2)
    assert str(err.value) == "support outside rational points: %s" % (want + ["-u**3 + y"])


# -- the wedge over F_m, as three truncated loops ----------------------------


def old_wedge(f, g):
    """FormOnTrunc.wedge as it was: one loop for the t-part and two for
    the dt-part, with the sign (-1)^p of moving dt left past a p-form."""
    m, p = f.level, f.degree
    degree = p + g.degree
    tparts = [DiffForm.zero(f.ctx, degree)] * (m + 1)
    dtparts = [DiffForm.zero(f.ctx, degree - 1)] * m
    for i in range(m + 1):
        a = f.tparts[i]
        if a.is_zero():
            continue
        for j in range(m + 1 - i):
            b = g.tparts[j]
            if not b.is_zero():
                tparts[i + j] = tparts[i + j] + a.wedge(b)
        # t^i (x) a  ^  t^j dt ^ eta  =  (-1)^p t^(i+j) dt ^ (a ^ eta)
        for j in range(m - i):
            eta = g.dt[j]
            if not eta.is_zero():
                term = a.wedge(eta)
                if p % 2:
                    term = -term
                dtparts[i + j] = dtparts[i + j] + term
    for i in range(m):
        eta = f.dt[i]
        if eta.is_zero():
            continue
        for j in range(m - i):
            b = g.tparts[j]
            if not b.is_zero():
                dtparts[i + j] = dtparts[i + j] + eta.wedge(b)
    return FormOnTrunc.of(f.ctx, degree, m, tparts, dtparts)


def _form(ctx, rng, k):
    if k < 0:
        return DiffForm.zero(ctx, k)
    return DiffForm(ctx, k, {s: _poly(ctx, rng, 2, maxdeg=1)
                             for s in combinations(range(ctx.r), k)
                             if rng.random() < 0.6})


def _form_on_trunc(ctx, rng, k, m):
    """A k-form over F_m whose dt-part is nonzero when k >= 1."""
    while True:
        f = FormOnTrunc.of(ctx, k, m, [_form(ctx, rng, k) for _ in range(m + 1)],
                           [_form(ctx, rng, k - 1) for _ in range(m)])
        if k == 0 or any(f.dt):
            return f


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_wedge_matches_three_loops(m):
    ctx = Context(("x", "y", "z"))
    rng = random.Random(71 + m)
    signed = 0
    for p in range(3):
        for q in range(3):
            f = _form_on_trunc(ctx, rng, p, m)
            g = _form_on_trunc(ctx, rng, q, m)
            want = old_wedge(f, g)
            assert f.wedge(g) == want, (f, g)
            if p % 2 and any(want.dt):
                signed += 1
    # the sign (-1)^p is exercised, not only carried along
    assert signed


# -- Henrici's sum against the whole-product gcd -----------------------------


def old_sum(p, q):
    """p + q cancelled by one gcd against the whole product of the
    denominators, as FieldElem.__add__ did before Henrici's rule."""
    a, b = p.den_poly(), q.den_poly()
    num, den = (p.num * b + q.num * a).cofactors(a * b)[1:]
    return (-num, -den) if den.LC < 0 else (num, den)


def _assert_sum_matches(p, q):
    total = p + q
    num, den = old_sum(p, q)
    assert (total.num, total.den_poly()) == (num, den), (p, q)
    assert (type(total.den) is int) == den.is_ground
    return total


def test_henrici_sum_named_cases():
    ctx = Context(("x", "y"))
    x, y = ctx.gens()
    common = 3 * x - 2 * y + 1
    # a common non-monic factor, once and repeated
    _assert_sum_matches((x + y) / (common * (y + 1)), x / (common ** 2 * (x - 2)))
    # coprime denominators with integer content 2 and 3, and a content gcd
    # of 2 that cancels from the numerator: 1/(2x) + 1/(2x + 4)
    _assert_sum_matches(x / (4 * x + 6), y / (6 * y + 3))
    assert str(_assert_sum_matches(1 / (2 * x), 1 / (2 * x + 4))) == "(x + 1)/(x**2 + 2*x)"
    # a = 2b: the sum drops to the polynomial tier
    assert _assert_sum_matches((x + 3) / (2 * x + 2), x / (x + 1)) == ctx.rational(3, 2)
    # equal denominators, cancelling to 0; distinct canonical denominators
    # never sum to 0
    p = (x * y - 1) / common
    assert _assert_sum_matches(p, -p).is_zero()


@pytest.mark.parametrize("names", [("x", "y"), ("x", "y", "z")])
def test_henrici_sum_matches_whole_product(names):
    ctx = Context(names)
    rng = random.Random(1956 + ctx.r)
    x, y = ctx.var(0), ctx.var(1)
    shared = [ctx.one, 3 * x - 2 * y + 1, (2 * y + 5) ** 2, ctx.rational(6)]
    for _ in range(30):
        s = rng.choice(shared)
        p = _poly(ctx, rng, 3) / (s * _poly(ctx, rng, 2) or ctx.one)
        q = _poly(ctx, rng, 3) / (s * _poly(ctx, rng, 2) or ctx.one)
        _assert_sum_matches(p, q)
        _assert_sum_matches(p, -p)
        # a summand over (often) twice p's denominator, with a sum in the
        # polynomial tier
        t = _poly(ctx, rng, 2)
        assert _assert_sum_matches(t / 2 - p, p) == t / 2


# -- the division on F_m against the loops it replaced -----------------------


def old_inv(u):
    """TruncElem.inv as it was: (sum a_i t^i)(sum b_j t^j) = 1 solved
    degree by degree, with no term skipped."""
    c0 = u.comps[0]
    if c0.is_zero():
        raise NotAUnit("constant term is zero")
    inv0 = c0.inv()
    out = [inv0] + [u.ctx.zero] * u.level
    for k in range(1, u.level + 1):
        acc = u.ctx.zero
        for i in range(1, k + 1):
            acc = acc + u.comps[i] * out[k - i]
        out[k] = -inv0 * acc
    return TruncElem(u.ctx, u.level, out)


def old_log_t(u):
    """log_t as it was: the recurrence k l_k = k u_k - sum_(j=1..k-1)
    j l_j u_(k-j) from u l' = u'."""
    jl = [u.ctx.zero]
    for k in range(1, u.level + 1):
        acc = u.comps[k].scale(k)
        for j in range(1, k):
            if jl[j] and u.comps[k - j]:
                acc = acc - jl[j] * u.comps[k - j]
        jl.append(acc)
    return TruncElem(u.ctx, u.level,
                     [c.scale(Fraction(1, k)) if k else c for k, c in enumerate(jl)])


def old_log_ghost(u):
    """The ghost tuple of gamma_inv(u) as witt.log_ghost read it, off one
    F_m division: -t u'/u = sum_j g_j t^j, so g_j = -(t u'/u)_j."""
    return tuple(-c for c in log_derivative(u).comps[1:])


UNIT_KINDS = ("dense", "sparse", "constant", "fraction")


def _coefficient(ctx, rng):
    """A small coefficient, in the fraction tier about one time in eight."""
    return _fraction(ctx, rng) if rng.random() < 0.125 else _poly(ctx, rng, 2, maxdeg=1)


def _unit(ctx, rng, m, kind):
    """A unit of F_m: every coefficient drawn (dense), about one in three
    (sparse), none above t^0 (constant), or dense with a fraction-tier
    constant term (fraction)."""
    c0 = ctx.zero
    while not c0:
        c0 = _fraction(ctx, rng) if kind == "fraction" else _poly(ctx, rng, 2, maxdeg=1)
    share = {"dense": 1, "sparse": 0.3, "constant": 0, "fraction": 1}[kind]
    return TruncElem(ctx, m, [c0] + [_coefficient(ctx, rng) if rng.random() < share
                                     else ctx.zero for _ in range(m)])


@pytest.mark.parametrize("m", range(1, 9))
def test_division_matches_the_old_loops(m):
    ctx = Context(("x", "y"))
    rng = random.Random(1406 + m)
    for kind in UNIT_KINDS:
        u = _unit(ctx, rng, m, kind)
        a = TruncElem(ctx, m, [_coefficient(ctx, rng) for _ in range(m + 1)])
        assert u.inv() == old_inv(u), u
        assert a / u == a * old_inv(u), (a, u)
        # the principal unit u / u_0, where the product by 1/v_0 is skipped
        p = u.scale(u.comps[0].inv())
        assert p.inv() == old_inv(p), p
        ell = old_log_t(p)
        assert log_t(p) == ell, p
        assert old_log_ghost(p) == tuple(ell.comps[j].scale(-j) for j in range(1, m + 1)), p
        assert ghost(gamma_inv(p)) == old_log_ghost(p), p


def test_division_by_a_non_unit_raises():
    ctx = Context(("x", "y"))
    x, y = ctx.gens()
    for m in (1, 4):
        a = TruncElem.one(ctx, m) + TruncElem.t(ctx, m).scale(y)
        v = TruncElem.t(ctx, m).scale(x)  # constant term 0, a t-coefficient x
        for divide in (lambda: a / v, v.inv, lambda: old_log_ghost(v),
                       lambda: a / TruncElem.zero(ctx, m), lambda: a / ctx.zero):
            with pytest.raises(NotAUnit):
                divide()


# -- the packed kernel against the loop -------------------------------------


def old_div(a, u):
    """a / u as the loop solves it, the route that every division took
    before scalars.series_quotient: q_k = (w_k - sum v_i q_(k-i)) / v_0
    over field elements, skipping zero terms and the product by 1/v_0
    when v_0 = 1."""
    v = u.comps
    inv0 = None if v[0] == u.ctx.one else v[0].inv()
    terms = [(i, c) for i, c in enumerate(v) if i and c]
    q = []
    for k, w in enumerate(a.comps):
        for i, c in terms:
            if i > k:
                break
            if q[k - i]:
                w = w - c * q[k - i]
        q.append(w if inv0 is None else w * inv0)
    return TruncElem(a.ctx, a.level, q)


def _assert_same_quotient(a, u):
    got, want = a / u, old_div(a, u)
    assert got == want, (a, u)
    assert [repr(c) for c in got.comps] == [repr(c) for c in want.comps], (a, u)


def _coefficients(ctx, rng, m, share, maxdeg):
    """m + 1 polynomial-tier coefficients, each nonzero with probability
    share, of degree at most maxdeg in each variable."""
    return [_poly(ctx, rng, rng.randint(1, 3), maxdeg) if rng.random() < share
            else ctx.zero for _ in range(m + 1)]


KERNEL_CONTEXTS = BASES + [Context(("x", "y", "z"))]


def _product_counter(monkeypatch):
    """count(call, *args): the number of sympy PolyElement products that
    call(*args) makes."""
    products = []
    mul = PolyElement.__mul__
    monkeypatch.setattr(PolyElement, "__mul__",
                        lambda p1, p2: products.append(1) or mul(p1, p2))

    def count(call, *args):
        products.clear()
        call(*args)
        return len(products)
    return count


@pytest.mark.parametrize("ctx", KERNEL_CONTEXTS, ids=repr)
def test_series_quotient_matches_the_loop(ctx, monkeypatch):
    count = _product_counter(monkeypatch)
    rng = random.Random(1900 + ctx.r)
    for m in range(1, 13):
        # exponents up to 300 need fields of more than 8 bits; the quotients
        # of such sparse inputs grow fast with m, so they stop at m = 4
        shapes = [(1, 1), (0.4, 2)] + ([(0.6, 300)] if m <= 4 else [])
        for v0 in (ctx.one, ctx.rational(1, 4), ctx.rational(3, 7), ctx.rational(-5, 2)):
            for share, maxdeg in shapes:
                v = [v0] + _coefficients(ctx, rng, m, share, maxdeg)[1:]
                w = _coefficients(ctx, rng, m, share, maxdeg)
                # the kernel makes no sympy products
                assert count(series_quotient, w, v) == 0
                u = TruncElem(ctx, m, v)
                _assert_same_quotient(TruncElem(ctx, m, w), u)
            # every quotient cancels to 0, and every one past q_0 does
            _assert_same_quotient(TruncElem.zero(ctx, m), u)
            _assert_same_quotient(u.scale(_poly(ctx, rng, 2)), u)
        if not ctx.r:
            continue
        # a fraction-tier coefficient in w or in v, or a non-constant v_0,
        # takes the loop
        v = _coefficients(ctx, rng, m, 0.7, 1)
        v[0] = ctx.one
        w = _coefficients(ctx, rng, m, 0.7, 1)
        for w_, v_ in ((w[:-1] + [_fraction(ctx, rng)], v),
                       (w, v[:-1] + [_fraction(ctx, rng)]),
                       (w, [ctx.one + ctx.var(0)] + v[1:])):
            _assert_same_quotient(TruncElem(ctx, m, w_), TruncElem(ctx, m, v_))


def test_polynomial_units_divide_without_sympy_products(monkeypatch):
    ctx = Context(("x", "y"))
    rng = random.Random(1906)
    m = 6
    u = TruncElem(ctx, m, [ctx.one] + [_poly(ctx, rng, 3, maxdeg=1) for _ in range(m)])
    f = TruncElem(ctx, m, [ctx.one] + [_fraction(ctx, rng) for _ in range(m)])
    products = []
    mul = PolyElement.__mul__
    monkeypatch.setattr(PolyElement, "__mul__",
                        lambda p1, p2: products.append(1) or mul(p1, p2))

    def count(call, *args):
        products.clear()
        call(*args)
        return len(products)

    assert count(log_t, u) == count(TruncElem.inv, u) == count(old_log_ghost, u) == 0
    # gamma_inv makes one product a_i c_(k-i) per nonzero pair.  After step
    # i, c_1..c_i are zero; on this dense unit every a_i and every other
    # c_j is nonzero, so there is one product per i < j = k - i <= m - i
    assert all(gamma_inv(u).comps)
    assert count(gamma_inv, u) == sum(max(m - 2 * i, 0) for i in range(1, m + 1)) == 6
    # a fraction-tier unit takes the loop, and still divides correctly
    assert count(log_t, f) > 0
    assert log_t(f) == old_log_t(f) and f.inv() == old_inv(f)


# -- dlog and gamma against the routes they replaced -------------------------


def old_trunc_dlog(u):
    """trunc_dlog as it was: the inverse of u wedged with du."""
    return embed_form(u.inv()).wedge(embed_form(u).d())


def old_gamma(a):
    """gamma as it was: the truncated product of the factors 1 - a_i t^i."""
    m = a.level
    result = TruncElem.one(a.ctx, m)
    for i, ai in enumerate(a.comps, start=1):
        if ai:
            factor = [a.ctx.one] + [a.ctx.zero] * m
            factor[i] = -ai
            result = result * TruncElem(a.ctx, m, factor)
    return result


def old_gamma_inv(u):
    """gamma_inv as it was: the unghost of old_log_ghost(u), one F_m division
    followed by the triangular solve of the ghost map."""
    return unghost(old_log_ghost(u))


def _assert_same(got, want, *inputs):
    assert got == want, inputs
    assert repr(got) == repr(want), inputs


@pytest.mark.parametrize("ctx", KERNEL_CONTEXTS, ids=repr)
def test_trunc_dlog_matches_the_inverse_wedge(ctx):
    rng = random.Random(2000 + ctx.r)
    for m in range(1, 9):
        # in three variables the inverse wedge takes seconds a call on dense
        # units from m = 6 on, so only sparse and constant ones go further
        for kind in UNIT_KINDS if ctx.r < 3 or m <= 5 else ("sparse", "constant"):
            u = _unit(ctx, rng, m, kind)
            # u_0 as drawn (not rational when ctx has variables), and u_0 = 1
            # or -3/7 on alternate levels, so that both tiers meet both
            # branches of the division
            p = u.scale(u.comps[0].inv() * (1 if m % 2 else Fraction(-3, 7)))
            for unit in (u, p):
                _assert_same(trunc_dlog(unit), old_trunc_dlog(unit), unit)


@pytest.mark.parametrize("ctx", BASES, ids=repr)
def test_dlog_split_gives_the_parts_of_trunc_dlog(ctx):
    """dlog_split(u, m + 1) is trunc_dlog's tparts and dt, which the test
    above compares with the inverse wedge; a shorter split keeps the first
    n t-parts."""
    rng = random.Random(3500 + ctx.r)
    for m in range(1, 7):
        for kind in UNIT_KINDS:
            u = _unit(ctx, rng, m, kind)
            p = u.scale(u.comps[0].inv() * (1 if m % 2 else Fraction(-3, 7)))
            for unit in (u, p):
                tparts, dt = dlog_split(unit, m + 1)
                got = trunc_dlog(unit)
                assert (tuple(tparts), tuple(dt)) == (got.tparts, got.dt), unit
                n = rng.randint(0, m)
                assert dlog_split(unit, n) == (tparts[:n], dt), (unit, n)


def test_polynomial_dlog_makes_no_sympy_products(monkeypatch):
    ctx = Context(("x", "y"))
    rng = random.Random(1906)
    m = 6
    u = TruncElem(ctx, m, [ctx.one] + [_poly(ctx, rng, 3, maxdeg=1) for _ in range(m)])
    count = _product_counter(monkeypatch)
    assert count(trunc_dlog, u) == 0
    assert trunc_dlog(u) == old_trunc_dlog(u)


@pytest.mark.parametrize("m", range(1, 13))
def test_gamma_matches_the_product_of_factors(m):
    ctx = Context(("x", "y"))
    rng = random.Random(2100 + m)
    draws = (lambda: ctx.zero, lambda: _poly(ctx, rng, 2, maxdeg=1),
             lambda: _fraction(ctx, rng))
    for shares in ((1, 0, 0), (0.3, 0.7, 0), (0, 1, 0), (0.2, 0.6, 0.2), (0, 0, 1)):
        a = WittVector(ctx, m, [rng.choices(draws, shares)[0]() for _ in range(m)])
        _assert_same(gamma(a), old_gamma(a), a)


@pytest.mark.parametrize("m", range(1, 13))
def test_gamma_inv_matches_the_unghost_route(m):
    ctx = Context(("x", "y"))
    # the draws of test_gamma_matches_the_product_of_factors
    rng = random.Random(2100 + m)
    draws = (lambda: ctx.zero, lambda: _poly(ctx, rng, 2, maxdeg=1),
             lambda: _fraction(ctx, rng))
    for shares in ((1, 0, 0), (0.3, 0.7, 0), (0, 1, 0), (0.2, 0.6, 0.2), (0, 0, 1)):
        a = WittVector(ctx, m, [rng.choices(draws, shares)[0]() for _ in range(m)])
        u = gamma(a)
        _assert_same(gamma_inv(u), a, u)
        # the old route takes seconds on the all-fraction draws past m = 10
        if m <= 10 or shares[2] < 1:
            _assert_same(gamma_inv(u), old_gamma_inv(u), u)
    # principal units that are not gamma of a short vector; past m = 8 the
    # old route takes up to a second on each dense one
    rng = random.Random(2400 + m)
    for kind in UNIT_KINDS if m <= 8 else ("sparse",):
        u = _unit(ctx, rng, m, kind)
        p = u.scale(u.comps[0].inv())
        _assert_same(gamma_inv(p), old_gamma_inv(p), p)


def test_gamma_inv_matches_the_unghost_route_at_m_24():
    # gamma of linear coordinates (p x + q y + r)/s, as the benchmark's
    # gamma-inv calls read them
    ctx = Context(("x", "y"))
    x, y = ctx.gens()
    rng = random.Random(2424)
    m = 24
    a = WittVector(ctx, m, [(rng.randint(-5, 5) * x + rng.randint(-5, 5) * y
                             + rng.randint(-5, 5)).scale(Fraction(1, rng.randint(1, 3)))
                            for _ in range(m)])
    u = gamma(a)
    _assert_same(gamma_inv(u), a, u)
    _assert_same(gamma_inv(u), old_gamma_inv(u), u)


# -- the derivative against the gcd over den^2 ------------------------------


def old_diff(a, i):
    """a.diff(i) as it was: num'*den - num*den' cancelled by one gcd against
    den^2, as (num, den) with den's leading coefficient positive."""
    x = a.ctx.var(i).num
    num, den = a.num, a.den_poly()
    num, den = (num.diff(x) * den - num * den.diff(x)).cofactors(den * den)[1:]
    return (-num, -den) if den.LC < 0 else (num, den)


def _assert_diff_matches(a, i, frac=False):
    d = a.diff(i)
    assert (d.num, d.den_poly()) == old_diff(a, i), (a, i)
    assert (type(d.den) is int) == d.den_poly().is_ground
    if frac:
        want = to_frac(a).diff(to_frac(a.ctx.var(i)))
        assert (to_frac(d).numer, to_frac(d).denom) == (want.numer, want.denom), (a, i)
    return d


def _factor(ctx, rng):
    """A non-constant integer polynomial in a random nonempty set of the
    variables, so that it is often free of the one differentiated."""
    chosen = rng.sample(range(ctx.r), rng.randint(1, ctx.r))
    while True:
        p = ctx.from_terms([(tuple(rng.randint(0, 2) if i in chosen else 0
                                   for i in range(ctx.r)), rng.randint(-4, 4))
                            for _ in range(3)])
        if p.num and not p.num.is_ground:
            return p


def _repeated_fraction(ctx, rng):
    """(a, k): a nonzero fraction whose denominator has integer content, one
    or two factors p^e with e <= 3, often free of some variable, and total
    multiplicity k."""
    while True:
        den, k = ctx.rational(rng.choice((1, 2, 6, 9))), 0
        for _ in range(rng.randint(1, 2)):
            e = rng.randint(1, 3)
            den, k = den * _factor(ctx, rng) ** e, k + e
        num = _poly(ctx, rng, 3)
        if num and type((num / den).den) is not int:
            return num / den, k


def test_diff_named_cases(monkeypatch):
    ctx = Context(("x", "y"))
    x, y = ctx.gens()
    # den = y is free of x and divides num' twice over: the derivative
    # drops to the polynomial tier
    d = _assert_diff_matches((1 + x ** 2 * y) / y, 0, frac=True)
    assert str(d) == "2*x" and type(d.den) is int
    assert (y / (y + 1)).diff(0) is ctx.zero
    # content and a cube: 1/(6 (x + y)^3)
    _assert_diff_matches(1 / (6 * (x + y) ** 3), 1, frac=True)
    # every denominator below is settled by the certificate; cancelling
    # against den^2 took 8 polynomial gcds here
    form = phi(WittVector(ctx, 4, [x, y, x + 1, x * y]), [(x + 2) / (y + 3) ** 2])
    calls = []
    original = type(x.num).cofactors
    monkeypatch.setattr(type(x.num), "cofactors",
                        lambda f, g: calls.append((f, g)) or original(f, g))
    assert str(drw_d(form)) == (
        "DRW((-2/(y + 3))*dx^dy; ((-2*x**2 - 4*x - y - 3)/(x*y + 3*x + 2*y + 6))*dx^dy; "
        "((-2*x**2 - 2)/(y + 3))*dx^dy; "
        "((-2*x**4 - 4*x**3 - 3*x*y - y**2 - 3*x - 7*y)/(x*y + 3*x + 2*y + 6))*dx^dy)")
    assert not calls


@pytest.mark.parametrize("names", [("x", "y"), ("x", "y", "z")])
def test_diff_matches_the_gcd_over_den_squared(names):
    ctx = Context(names)
    rng = random.Random(1956 + 10 * ctx.r)
    for _ in range(25):
        a, k = _repeated_fraction(ctx, rng)
        for i in range(ctx.r):
            _assert_diff_matches(a, i, frac=k <= 3)
            # times a factor that may cancel part of the denominator
            _assert_diff_matches(a * _factor(ctx, rng), i)
        _assert_diff_matches(_poly(ctx, rng, 3), rng.randrange(ctx.r), frac=True)


# -- the reader against the parser it replaced --------------------------------

OLD_OPS = set("+-*/^(),")


def old_tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c in OLD_OPS:
            tokens.append(c)
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(int(text[i:j]))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise ParseError("unexpected character %r in %r" % (c, text))
    return tokens


class OldParser:
    def __init__(self, ctx, tokens, text):
        self.ctx = ctx
        self.tokens = tokens
        self.pos = 0
        self.text = text

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, tok):
        if self.next() != tok:
            raise ParseError("expected %r in %r" % (tok, self.text))

    def parse(self):
        depth = 0
        for tok in self.tokens:
            if tok == "(":
                depth += 1
                if depth > MAX_NESTING:
                    raise ParseError("parentheses nested deeper than %d" % MAX_NESTING)
            elif tok == ")":
                depth -= 1
        value = self.elem()
        if self.peek() is not None:
            raise ParseError("trailing input in %r" % self.text)
        return value

    def elem(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while True:
            nxt = self.peek()
            if nxt in ("*", "/"):
                op = self.next()
                value = value * self.factor() if op == "*" else value / self.factor()
            elif isinstance(nxt, int) or nxt == "(" \
                    or (isinstance(nxt, str) and nxt not in OLD_OPS):
                # juxtaposition: 3t, 2(x+1), x y
                value = value * self.factor()
            else:
                return value

    def factor(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next() == "-":
                sign = -sign
        value = self.base()
        if self.peek() == "^":
            self.next()
            value = value ** self.exponent()
        return value if sign == 1 else -value

    def exponent(self):
        sign = 1
        while self.peek() in ("+", "-"):
            if self.next() == "-":
                sign = -sign
        tok = self.next()
        if not isinstance(tok, int):
            raise ParseError("exponent must be an integer in %r" % self.text)
        return sign * tok

    def base(self):
        tok = self.next()
        if isinstance(tok, int):
            return self.ctx.rational(tok)
        if tok == "(":
            value = self.elem()
            self.expect(")")
            return value
        if isinstance(tok, str) and tok in self.ctx.names:
            return self.ctx.var(self.ctx.names.index(tok))
        if tok is None:
            raise ParseError("unexpected end of input in %r" % self.text)
        raise ParseError("unknown token %r in %r" % (tok, self.text))


def old_parse(ctx, text):
    """parse_elem as it was: a character loop for the tokens and field
    element arithmetic at every step of the descent."""
    return OldParser(ctx, old_tokenize(text), text).parse()


def _outcome(call, *args):
    """(value, repr) of call(*args), or (error type, message)."""
    try:
        value = call(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return value, repr(value)


SIGNS = ("", "", "", "-", "+", "--", "-+", "- ")


def _atom(rng, names):
    """An integer, a variable, an integer juxtaposed with a variable (3x)
    or a term (p/q)*x^a*y^b, with a signed exponent one time in five."""
    r = rng.random()
    if not names or r < 0.25:
        text = str(rng.randint(0, 12))
    elif r < 0.5:
        text = rng.choice(names)
    elif r < 0.6:
        text = "%d%s" % (rng.randint(1, 9), rng.choice(names))
    else:
        text = "*".join(["(%d/%d)" % (rng.randint(-9, 9), rng.randint(1, 6))]
                        + ["%s^%d" % (n, rng.randint(0, 3)) for n in names if rng.random() < 0.6])
    if rng.random() < 0.2:
        text += "^%s%d" % (rng.choice(SIGNS), rng.randint(0, 3))
    return text


def _expression(rng, names, depth):
    """A seeded expression of sums, products, quotients, powers with signed
    exponents, juxtaposition and unary signs, nested up to depth."""
    r = rng.random()
    if depth == 0 or r < 0.2:
        text = _atom(rng, names)
    elif r < 0.4:  # a sum of terms, the shape of the benchmark's entries
        text = "+".join(_atom(rng, names) for _ in range(rng.randint(2, 6)))
    else:
        a, b = _expression(rng, names, depth - 1), _expression(rng, names, depth - 1)
        op = rng.choice(("+", "-", "*", "/", " ", "", "^"))
        if op == "^":
            text = "(%s)^%s%d" % (a, rng.choice(SIGNS), rng.randint(0, 3))
        elif op in (" ", ""):  # juxtaposition: x(y+1), (x)(y), x 3x
            text = "%s%s(%s)" % (a, op, b) if rng.random() < 0.7 else "%s %s" % (a, _atom(rng, names))
        elif rng.random() < 0.5:
            text = "(%s)%s(%s)" % (a, op, b)
        else:
            text = "%s %s %s" % (a, op, b)
    return rng.choice(SIGNS) + text


@pytest.mark.parametrize("names", [(), ("x",), ("x", "y"), ("x", "y", "z")], ids=repr)
def test_reader_matches_the_old_parser(names):
    ctx = Context(names)
    rng = random.Random(2501 + len(names))
    kinds = set()
    for _ in range(400):
        text = _expression(rng, names, 3)
        want = _outcome(old_parse, ctx, text)
        assert _outcome(parse_elem, ctx, text) == want, text
        kinds.add(type(want[0].den) is int if isinstance(want[0], FieldElem) else want[0])
    # both tiers (the fraction tier needs a variable) and some errors
    assert kinds >= ({True, False} if names else {True}) | {DivisionByZero}, kinds


EDGE_TEXTS = [
    "0^0", "0^-1", "1/0", "(x-x)^-1", "(x-x)^0", "x/(x-x)", "0^3", "2^-2", "(2/3)^-2",
    "(-2x)^-3", "x^-2", "(x+1)^-1", "(x+1)^0", "(x+y)^3", "x^10000000", "x^--2", "x^+-2",
    "x)", "(x", "((x+1)", "x y )", "", "-", "+-", "x^", "x^y", "x^(2)", "()", "3x^2y",
    "2(x+1)(x-1)", "x y", "1 2", "1,2", "x.y", "$", "x @ y", "z", "1/0 + )",
    "(" * 100 + "x" + ")" * 100, "(" * 101 + "x" + ")" * 101, "(" * 101 + "x",
    ")" + "(" * 101 + "x" + ")" * 101, "1/0 + " + "(" * 101,
    "²", "x²", "x²^2", "٣x", "٣٤", "3²", "²3", "x ²", "½", "3½", "é", "2é", "é x²",
    "x + 1", "x\x1c+1", "1" * 5000, "1" * 5000 + "$", "$" + "1" * 5000,
]


_LONG = (ResourceLimit, "integer of 5000 digits is over the limit of 4300 digits")

# The edge texts the reader refuses on purpose where the old parser did
# not, with the error the tokenizer raises in every context.  A token
# starts with an ASCII digit, a letter, '_' or an operator: the old
# parser read "٣" as 3 and passed "²" to int(), whose ValueError it
# raised, as it did for a run of digits longer than int() converts.
CHANGED_EDGES = {
    "²": (ParseError, "unexpected character '²' in '²'"),
    "٣x": (ParseError, "unexpected character '٣' in '٣x'"),
    "٣٤": (ParseError, "unexpected character '٣' in '٣٤'"),
    "3²": (ParseError, "unexpected character '²' in '3²'"),
    "²3": (ParseError, "unexpected character '²' in '²3'"),
    "x ²": (ParseError, "unexpected character '²' in 'x ²'"),
    "1" * 5000: _LONG,
    "1" * 5000 + "$": _LONG,
}


def test_reader_edge_cases_match_the_old_parser():
    for ctx in (Context(("x", "y")), Context(("é", "x²"))):
        for text in EDGE_TEXTS:
            if text in CHANGED_EDGES:
                assert _outcome(_tokenize, text) == CHANGED_EDGES[text], text[:40]
                assert _outcome(parse_elem, ctx, text) == CHANGED_EDGES[text], text[:40]
                continue
            assert _outcome(_tokenize, text) == _outcome(old_tokenize, text), text[:40]
            assert _outcome(parse_elem, ctx, text) == _outcome(old_parse, ctx, text), text[:40]
    ctx = Context(("x", "y"))
    x = ctx.var(0)
    assert _outcome(parse_elem, ctx, "x²") == (ParseError, "unknown token 'x²' in 'x²'")
    assert parse_elem(ctx, "(" * 100 + "x" + ")" * 100) == x
    assert _outcome(parse_elem, ctx, "(" * 101 + "x" + ")" * 101) == (
        ParseError, "parentheses nested deeper than 100")


def test_variable_names_are_read_as_before():
    for name in ("x", "_a1", "é", "x²", "٣", "3", "x y", "", "+"):
        assert _outcome(Context, (name,)) == _outcome(_old_context, name), name
    # a name that does not read as one name token is refused with one
    # message; the old check let the tokenizer's error through
    for name in ("²", "½", "t'"):
        assert _outcome(Context, (name,)) == (
            ParseError, "variable name %r is not an identifier" % (name,)), name


def _old_context(name):
    """Context((name,)) with the name check as it was."""
    if name in OLD_OPS or old_tokenize(name) != [name]:
        raise ParseError("variable name %r is not an identifier" % (name,))
    return Context((name,))


# -- the one JSON writer against the to_json bodies it replaced ---------------


def _old_poly_json(poly):
    return [[list(mon), fraction_text(coef)] for mon, coef in sorted(poly.items())]


def old_to_json(x):
    """to_json as each class wrote it, a structure for json.dumps."""
    if isinstance(x, FieldElem):
        return {"num": _old_poly_json(x.num), "den": _old_poly_json(x.den_poly())}
    if isinstance(x, DiffForm):
        return [[list(s), old_to_json(v)] for s, v in sorted(x.coeffs.items())]
    if isinstance(x, (FieldSymbol, RelSymbol)):
        return {"coef": fraction_text(x.coef), "entries": [old_to_json(y) for y in x.entries]}
    if isinstance(x, CycleGen):
        return {"f": [old_to_json(c) for c in x.f], "bs": [old_to_json(b) for b in x.bs],
                "coef": fraction_text(x.coef)}
    if isinstance(x, FormOnTrunc):
        return {"degree": x.degree, "level": x.level,
                "tparts": [old_to_json(w) for w in x.tparts],
                "dt": [old_to_json(w) for w in x.dt]}
    level = {"level": x.level, x.json_key: [old_to_json(c) for c in x.comps]}
    if isinstance(x, CanonRelForm):
        return {"degree": x.degree + 1, "canon": {"degree": x.degree, **level}}
    if isinstance(x, FormTuple):
        return {"degree": x.degree, **level}
    return level


def _serializable(ctx, seed, fraction):
    """One seeded object of every serializable class; with fraction, each
    is scaled by 1/(x + k), which puts its elements in the fraction tier."""
    s = Sampler(ctx, seed)
    c = 1 / (ctx.var(0) + s.rng.randint(1, 3)) if fraction else ctx.one
    m = s.rng.randint(1, 4)
    return [s.nonzero() * c, ctx.zero, s.form(0).scale(c), s.form(2).scale(c),
            s.nilpotent(m).scale(c), WittVector(ctx, m, [c * s.fe(1) for _ in range(m)]),
            s.form_on_trunc(1, m).scale(c), s.canon(1, m).scale(c), s.drw(2, m).scale(c),
            FieldSymbol(ctx, [s.nonzero() * c, s.nonzero()], Fraction(-3, 2)),
            RelSymbol([s.trunc_unit(m).scale(c), s.principal_unit(m)], 4),
            CycleGen([s.nonzero() * c, s.fe()], [s.nonzero() * c], Fraction(2, 3))]


def _round_trip(x):
    ctx = x.ctx
    if isinstance(x, DiffForm):
        return DiffForm.from_json(ctx, x.degree, x.to_json())
    return type(x).from_json(ctx, x.to_json())


def _same(a, b):
    """a == b; symbols and generators, which have no equality, field by field."""
    if isinstance(a, (FieldSymbol, RelSymbol, CycleGen)):
        return type(a) is type(b) and all(getattr(a, k) == getattr(b, k) for k in a.__slots__)
    return a == b


@pytest.mark.parametrize("fraction", [False, True], ids=["polynomial", "fraction"])
def test_writer_matches_the_old_to_json(fraction):
    for ctx in (Context(("x",)), Context(("x", "y", "z"))):
        for seed in range(12):
            objects = _serializable(ctx, seed, fraction)
            assert (type(objects[0].den) is int) is not fraction
            for x in objects:
                want = old_to_json(x)
                assert x.json_text() == json.dumps(want), x
                assert x.to_json() == want
                assert _same(_round_trip(x), x), x


def test_witt_payloads_match_the_old_json(capsys):
    ctx = Context(("x", "y"))
    a = WittVector(ctx, 3, [parse_elem(ctx, e) for e in ("x", "1/(x+1)", "2")])
    g = ghost(a)
    pairs = witt_decompose(a)
    assert write_json({"ghost": g}) == json.dumps({"ghost": [old_to_json(c) for c in g]})
    assert write_json([[i, b] for i, b in pairs]) == json.dumps(
        [[i, old_to_json(b)] for i, b in pairs])
    for subop, want in (("ghost", {"ghost": [old_to_json(c) for c in g]}),
                        ("decompose", [[i, old_to_json(b)] for i, b in pairs])):
        assert cli.main(["witt", subop, "--vars", "x,y", "(x, 1/(x+1), 2)"]) == 0
        assert capsys.readouterr().out == json.dumps(want) + "\n"
    # strings and nested lists as json.dumps writes them
    data = {"a": 'x"y\\é', "b": [1, [2, "3/1"], []], "c": {}}
    assert write_json(data) == json.dumps(data)


# -- the polynomial backend stays in scalars --------------------------------

BRIDGE = re.compile(r"\.frac\b|\bctx\.field\b|\bfrom_terms\b")
# set_ring moves polynomials between contexts (Context.lift); "%s/%s" is
# the coefficient text (fraction_text)
MOVES = re.compile(r'\bset_ring\b|"%s/%s"')
# the u-line's reads of a polynomial: its degree in u, the exact division
# by a point's polynomial and factoring; elsewhere they are calls of
# ctx.degree, ctx.strip and ctx.u_factors
U_LINE = re.compile(r"(?<!ctx)\.degree\(|\bdivmod\(|\.factor_list\(")
# sympy's rational function field and the bridge to it
FRACFIELD = re.compile(r"^\s*(from|import)\b.*(\bQQ\b|sympy\.polys\.fields)"
                       r"|\.frac\b|\bctx\.field\b")


def _offenders(pattern, scalars_too=False):
    src = Path(__file__).resolve().parent.parent / "src" / "wittcycles"
    modules = sorted(src.glob("*.py"))
    assert len(modules) > 5
    return ["%s:%d: %s" % (path.name, n, line.strip())
            for path in modules if scalars_too or path.name != "scalars.py"
            for n, line in enumerate(path.read_text().splitlines(), start=1)
            if pattern.search(line)]


def test_no_module_uses_the_rational_function_field():
    """Elements print from their own num and den; sympy's FracField is
    the tests' reference route only."""
    offenders = _offenders(FRACFIELD, scalars_too=True)
    assert not offenders, offenders
    assert FRACFIELD.search("from sympy import QQ, ZZ, grlex")
    assert FRACFIELD.search("from sympy.polys.fields import field")


def test_only_scalars_reads_polynomials_on_the_u_line():
    offenders = _offenders(U_LINE)
    assert not offenders, offenders
    assert U_LINE.search("d = fac.degree(upos)") and not U_LINE.search("ctx.degree(fac, upos)")


def test_only_scalars_uses_the_fracfield_bridge():
    offenders = _offenders(BRIDGE)
    assert not offenders, offenders


def test_only_scalars_moves_elements_and_writes_coefficients():
    offenders = _offenders(MOVES)
    assert not offenders, offenders


def test_only_cofactors_calls_the_polynomial_gcd():
    """sympy's polynomial gcd is reached through scalars._cofactors alone,
    behind the coprimality certificate."""
    gcd = re.compile(r"\.cofactors\(|\.gcd\(|\bcancel\(")
    assert not _offenders(gcd)
    scalars = Path(__file__).resolve().parent.parent / "src" / "wittcycles" / "scalars.py"
    calls = [line.strip() for line in scalars.read_text().splitlines() if gcd.search(line)]
    assert calls == ["return f.cofactors(g)"]


def test_only_trunc_reads_the_log_derivative():
    """t u'/u is named in trunc, whose dlog_split writes every dlog over
    F_m from it, and in verify's ghost identity that checks it, so no
    other module derives the split again."""
    offenders = [line for line in _offenders(re.compile(r"\blog_derivative\b"))
                 if not line.startswith("trunc.py:")]
    assert [(line.split(":")[0], line.split(": ", 1)[1]) for line in offenders] == [
        ("verify.py", "_require(-trunc.log_derivative(witt.gamma(a))")]


def test_only_forms_reads_log_parts():
    """forms.dlog and forms.dlog_sum split elements into their log parts;
    every other dlog over F, the dlog zero test's too, is read from them."""
    lines = _offenders(re.compile(r"\.log_parts\("), scalars_too=True)
    assert lines and all(line.startswith("forms.py:") for line in lines), lines


def test_only_scalars_factors_calls_factor_list():
    """sympy's factoring is reached through the memoised scalars.factors
    alone."""
    factor = re.compile(r"\.factor_list\(")
    offenders = _offenders(factor)
    assert not offenders, offenders
    scalars = Path(__file__).resolve().parent.parent / "src" / "wittcycles" / "scalars.py"
    calls = [line.strip() for line in scalars.read_text().splitlines()
             if factor.search(line)]
    assert calls == ["return tuple(fac for fac, _mult in poly.factor_list()[1])"]


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_reaches(text, stem, modules):
    """(line, name) of every import of an underscore name from a wittcycles
    module, and every read of one as an attribute of another module."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("wittcycles")):
            found += [(node.lineno, a.name) for a in node.names if _private(a.name)]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules - {stem} and _private(node.attr)):
            found.append((node.lineno, node.attr))
    return found


def test_no_module_reaches_a_private_name_of_another():
    src = Path(__file__).resolve().parent.parent / "src" / "wittcycles"
    paths = sorted(src.glob("*.py"))
    modules = {path.stem for path in paths}
    offenders = ["%s:%d: %s" % (path.name, line, name) for path in paths
                 for line, name in _private_reaches(path.read_text(), path.stem, modules)]
    assert not offenders, offenders
    # the scan sees both kinds of reach, and not a module's own names
    assert _private_reaches("from .milnorfield import Valuation, _support\n"
                            "milnorfield._zero(x)\nself.ctx._gens\n__all__ = []\n",
                            "addchow", modules) == [(1, "_support"), (2, "_zero")]
    assert not _private_reaches("milnorfield._zero(x)\n", "milnorfield", modules)
