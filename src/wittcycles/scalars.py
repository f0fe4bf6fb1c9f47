"""Exact base-field arithmetic: Q and the rational function field F = Q(x1..xr).

A :class:`Context` fixes the ordered variable list for one computation.
There is one context per tuple of names, compared by identity and never freed.
A field element is a fraction num/den of sparse multivariate polynomials
with integer coefficients (backed by sympy's sparse ring Z[x1..xr] under
graded-lexicographic term order).  The form is canonical, so equality is
a representation comparison:

- num and den are coprime in Z[x1..xr], integer content included;
- the leading coefficient of den is positive;
- zero is 0/1.

This is exactly the (numer, denom) pair that sympy's rational function
field QQ(x1..xr) stores.  Denominators are not made monic: x/2 is
numerator x over denominator 2, and 2/(3x) is numerator 2 over 3x.

Elements live in one of two tiers of that form:

- the polynomial tier, where den is constant and is kept as a positive
  Python int.  Sums, differences, products, rational scaling, powers and
  derivatives of such elements stay in this tier and need only ring
  operations plus integer gcds against den;
- the fraction tier, where den is a non-constant polynomial.  An element
  enters it only on division by a non-constant.  Products cancel each
  numerator against the other factor's denominator, and sums of distinct
  denominators a and b cancel by Henrici's rule: with g = gcd(a, b), only
  a factor of g can divide the numerator over a*b/g.  A derivative by
  x_i cancels against g = gcd(den, d den/dx_i) alone: an irreducible
  factor of den that involves x_i divides den/g exactly once and never
  the new numerator, so only factors of den free of x_i (integer content
  among them) can cancel.  Every polynomial gcd first tries a mod-p
  coprimality certificate (``_cofactors``), which settles most of them
  with integer gcds alone, and falls back to sympy's polynomial gcd when
  the certificate fails.

The algorithms read ``num`` and ``den_poly()`` directly, and only this
module calls methods of the polynomials behind them.  It moves elements
between a context with a designated variable u at position pos (the
u-line) and its base ``drop(pos)``: ``lift`` views a base element on the
u-line (sympy's ``set_ring`` inserts u by name, with exponent 0), and
``split`` cuts a polynomial of the u-line into its coefficients by powers
of u, integer polynomials over 1 and so canonical.  Three more ``Context``
methods read polynomials of the u-line: ``degree`` in u, ``strip``, the
exact division by a closed point's polynomial, and ``u_factors``, the one
route to sympy's ``factor_list``, which memoises the distinct irreducible
factors of a polynomial by (ring, poly), for the last 256.

``series_quotient`` is the division on F_m = F[t]/(t^(m+1)), q v = w
solved degree by degree: by a kernel over packed monomials, one int per
exponent tuple, when v_0 is a nonzero rational and every coefficient of
w and v is in the polynomial tier, and by a loop over field elements
otherwise.

An element prints from ``num`` and ``den`` alone, with the bracketing of
sympy's printer for its rational function field.  ``from_terms`` is the
one rebuild of a polynomial from (monomial, rational) terms, for the
reader, JSON input and the differential tests.  ``parse_elem`` reads the
expression grammar in one pass: one regex finds the tokens, and the
recursive descent keeps each value as a {monomial: int or Fraction} term
dict until a division by a non-constant or a power of a sum needs field
arithmetic.  ``JsonText`` is the one JSON writer: every serializable
class writes its text in one pass, an element as its terms
[monomial, "c/1"] with the monomials sorted, and ``to_json`` reads that
text back.  Rational coefficients are written "p/q" by ``fraction_text``
and read back by ``parse_fraction``.  ``ScaledSymbol`` is the one shape
of a Milnor symbol coef * {entries}, over F and over F_m alike: its
degree, repr and JSON; ``as_sum`` reads one term or a list of them as a
formal sum.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, takewhile
from math import gcd, lcm
from operator import add, mul, sub

from sympy import ZZ, grlex
from sympy.polys.rings import ring as _sympy_ring

from .errors import ContextMismatch, DivisionByZero, ParseError


class Context:
    """An ordered list of variable names; owns the polynomial ring Z[x1..xr].
    Interned: one instance per tuple of names."""

    __slots__ = ("names", "ring", "zero", "one", "_gens")

    _interned = {}

    def __new__(cls, names):
        names = tuple(names)
        if names in cls._interned:
            return cls._interned[names]
        if len(set(names)) != len(names):
            raise ParseError("duplicate variable names: %r" % (names,))
        for name in names:
            # the expression grammar reads a variable as one identifier token
            if name in _OPS or _tokenize(name) != [name]:
                raise ParseError("variable name %r is not an identifier" % (name,))
        self = super().__new__(cls)
        self.names = names
        # sympy needs at least one generator; a context without variables
        # carries an unused dummy one
        built = _sympy_ring(",".join(names) or "_dummy", ZZ, grlex)
        self.ring = built[0]
        self._gens = tuple(FieldElem(self, g) for g in built[1:]) if names else ()
        self.zero = FieldElem(self, self.ring.dtype({}))
        self.one = self._constant(1, 1)
        return cls._interned.setdefault(names, self)

    @property
    def r(self):
        return len(self.names)

    def __repr__(self):
        return "Context(%s)" % ", ".join(self.names)

    # -- constructors -------------------------------------------------

    def var(self, i):
        """The i-th variable (0-based) as a field element."""
        return self._gens[i]

    def gens(self):
        return list(self._gens)

    def _constant(self, p, q):
        """p/q for coprime integers p and q > 0."""
        if not p:
            return self.zero
        return FieldElem(self, self.ring.dtype({self.ring.zero_monom: p}), q)

    def rational(self, p, q=1):
        if type(p) is int and q == 1:
            return self._constant(p, 1)
        fr = Fraction(p, q)
        return self._constant(fr.numerator, fr.denominator)

    def from_terms(self, terms):
        """The polynomial sum of c * x^mon over (monomial, coefficient)
        pairs; coefficients are anything with integer ``numerator`` and
        ``denominator`` (int, Fraction, sympy's QQ)."""
        width = len(self.ring.zero_monom)
        acc = {}
        for mon, c in terms:
            mon = tuple(mon) or self.ring.zero_monom
            if len(mon) != width:
                raise ParseError("monomial %r does not fit %r" % (mon, self))
            if type(c) not in (int, Fraction):
                c = Fraction(c.numerator, c.denominator)
            acc[mon] = acc[mon] + c if mon in acc else c
        den = lcm(*(c.denominator for c in acc.values()))
        num = {mon: c.numerator * (den // c.denominator)
               for mon, c in acc.items() if c}
        return FieldElem(self, *_coprime(self.ring.dtype(num), den))

    # -- the u-line over a base context -------------------------------

    def drop(self, pos):
        """The base context: this one without the variable at pos."""
        return Context(self.names[:pos] + self.names[pos + 1:])

    def lift(self, a):
        """The element a of a base context viewed in this context.  set_ring
        matches variables by name and gives the new one exponent 0, which
        keeps num and den coprime and the leading coefficient of den."""
        den = a.den if type(a.den) is int else a.den.set_ring(self.ring)
        return FieldElem(self, a.num.set_ring(self.ring), den)

    def split(self, poly, pos):
        """The integer polynomial poly of a context with one more variable,
        inserted at position pos, as {e: coefficient of that variable^e}
        with coefficients in this context; zero coefficients are left out."""
        zero = self.ring.zero_monom
        buckets = {}
        for mon, c in poly.items():
            buckets.setdefault(mon[pos], {})[mon[:pos] + mon[pos + 1:] or zero] = c
        return {e: FieldElem(self, self.ring.dtype(ts)) for e, ts in buckets.items()}

    def degree(self, poly, pos):
        """The degree of a polynomial of this context in the variable at
        pos; -inf for the zero polynomial."""
        return poly.degree(pos)

    def strip(self, poly, fac, pos):
        """(k, poly / fac^k) with fac^k the largest power of the polynomial
        fac dividing poly; a polynomial of lower degree than fac in the
        variable at pos is not divisible."""
        k = 0
        d = fac.degree(pos)
        while poly.degree(pos) >= d:
            q, r = divmod(poly, fac)
            if r:
                break
            k += 1
            poly = q
        return k, poly

    def u_factors(self, poly, pos):
        """The irreducible factors of a polynomial of this context that
        involve the variable at pos, without multiplicities; a polynomial
        free of it is not factored.  The factorings are memoised by (ring,
        poly), the last FACTOR_CACHE_SIZE; callers must not mutate them."""
        if poly.degree(pos) <= 0:
            return []
        return [fac for fac in _factors(self.ring, poly) if fac.degree(pos) > 0]

    def elem(self, value):
        """Coerce an int, Fraction, string or FieldElem into this context."""
        if isinstance(value, FieldElem):
            if value.ctx is not self:
                raise ContextMismatch("element of %r used in %r" % (value.ctx, self))
            return value
        if isinstance(value, (int, Fraction)):
            return self.rational(value)
        if isinstance(value, str):
            return parse_elem(self, value)
        raise ParseError("cannot coerce %r" % (value,))

    def check(self, other):
        if self is not other:
            raise ContextMismatch("mixed contexts %r and %r" % (self, other))


# -- canonical-form helpers ---------------------------------------------
#
# A den that is an int marks the polynomial tier; a den that is a
# polynomial is never constant.

def _scaled(poly, k, g):
    """poly * k / g for integers k and g, with g dividing every coefficient."""
    if g == 1:
        return poly if k == 1 else poly.new([(m, c * k) for m, c in poly.items()])
    return poly.new([(m, c // g * k) for m, c in poly.items()])


# The coprimality certificate.  Most polynomial gcds the fraction tier
# takes are 1, and _cofactors proves that one variable x_j at a time: it
# sends every other variable x_i to _BASE**(i + 1) modulo the prime _P and
# takes the gcd of the two images as polynomials in x_j over Z/_P.  The gcd
# h of f and g divides g, so the x_j-leading coefficient of h divides that
# of g.  When g keeps its x_j-degree under the map, so does h, and h's
# image divides both images; a gcd of 1 there proves that h is free of x_j.
# Any failure falls back to sympy, so the point decides speed only.
_P = 2 ** 61 - 1
_BASE = 0x5DEECE66D

# The images are dense, so the certificate costs time linear in the degree,
# where sympy's gcd may not.  Its time over sympy's on coprime pairs of
# x-degree N = 32, 64, 128, 10^4 (2 cores, Python 3.11, sympy 1.14):
#   x^N + 1 and x^N + x            1.1   1.8   3.5   24
#   x^N + y and x^N + x*y + 1      0.55  0.86  1.6   8.0
#   dense in x                     0.91  1.24  1.26
#   dense in x, degree 2 in y      0.26  0.24  0.19
# Above the cap operands go straight to sympy; the workloads reach degree 33.
CERT_MAX_DEGREE = 64


def _image(poly, j, degree):
    """The x_j-coefficients of poly's image modulo _P, lowest degree first."""
    out = [0] * (degree + 1)
    powers = {}  # _BASE**k modulo _P by k
    for mon, c in poly.items():
        for i, e in enumerate(mon):
            if e and i != j:
                k = (i + 1) * e
                if k not in powers:
                    powers[k] = pow(_BASE, k, _P)
                c = c * powers[k]
        out[mon[j]] += c
    return [c % _P for c in out]


def _unit_gcd(a, b):
    """Whether images a and b have gcd 1 over Z/_P and b keeps its degree."""
    if not b[-1]:
        return False
    while len(b) > 1:  # Euclid, with b[-1] nonzero
        inv = pow(b[-1], -1, _P)
        while len(a) >= len(b):
            q, k = a[-1] * inv % _P, len(a) - len(b)
            a[k:] = [(x - q * y) % _P for x, y in zip(a[k:], b)]
            a.pop()
        while a and not a[-1]:
            a.pop()
        if not a:
            return False
        a, b = b, a
    return True


def _cofactors(f, g):
    """(h, f/h, g/h) for h = gcd(f, g), as sympy's cofactors gives them up
    to sign.  When the certificate holds for every variable of both f and
    g, h is the gcd of their integer contents; otherwise, and above
    CERT_MAX_DEGREE, sympy computes.  For g = 0 and f nonzero the gcd is
    f itself.  When f or g is one term, every divisor of it is one term
    too, so h is the content gcd times each variable's least exponent."""
    if f and not g:
        return f, f.ring.one, g
    if f and g and (len(f) == 1 or len(g) == 1):
        low = tuple(map(min, *f, *g))
        h = gcd(*f.values(), *g.values())
        return (f.ring({low: h}),
                *(p.new([(tuple(map(sub, mon, low)), c // h) for mon, c in p.items()])
                  for p in (f, g)))
    degrees = tuple(zip(f.degrees(), g.degrees()))
    if (f and g and max(map(max, degrees)) <= CERT_MAX_DEGREE
            and all(_unit_gcd(_image(f, j, d), _image(g, j, e))
                    for j, (d, e) in enumerate(degrees) if d and e)):
        h = gcd(*f.values(), *g.values())
        return f.ring(h), _scaled(f, 1, h), _scaled(g, 1, h)
    return f.cofactors(g)


def _coprime(num, den):
    """num and den divided by their gcd, for den a positive int or a
    polynomial with positive leading coefficient."""
    if type(den) is int:
        if den == 1:
            return num, den
        g = gcd(den, *num.values())
        return _scaled(num, 1, g), den // g
    return _cofactors(num, den)[1:]


# Sized by peak memory: on criteria 9 and 10, 256 entries keep most repeats
# for about 0.5 MB, and 1,024 factor 15% fewer polynomials for 2.1 MB.
FACTOR_CACHE_SIZE = 256


@lru_cache(maxsize=FACTOR_CACHE_SIZE)
def _factors(ring, poly):
    return tuple(fac for fac, _mult in poly.factor_list()[1])


def _settled(ctx, num, den):
    """The element num/den for coprime polynomials num and den."""
    if den.LC < 0:
        num, den = -num, -den
    if den.is_ground:
        return FieldElem(ctx, num, den.LC)
    return FieldElem(ctx, num, den)


class JsonText:
    """A value that writes its JSON text in one pass: ``json_text`` writes
    its ``json_shape``, a nest of dicts and lists with ints, strings and
    JsonText values as leaves, and ``to_json`` reads that text back."""

    __slots__ = ()

    def json_text(self):
        return write_json(self.json_shape())

    def to_json(self):
        return json.loads(self.json_text())


class ScaledSymbol(JsonText):
    """A scaled Milnor symbol coef * {entries} over one context: the shape
    of symbols over F (milnorfield) and over F_m (relmilnor), which check
    their entries and then call this with entries as a tuple."""

    __slots__ = ("ctx", "entries", "coef")

    def __init__(self, ctx, entries, coef):
        self.ctx = ctx
        self.entries = entries
        self.coef = Fraction(coef)

    @property
    def degree(self):
        return len(self.entries)

    def __repr__(self):
        return "%s*{%s}" % (self.coef, ", ".join(str(y) for y in self.entries))

    def json_shape(self):
        return {"coef": fraction_text(self.coef), "entries": self.entries}


def as_sum(terms, kind=ScaledSymbol, noun="symbol"):
    """A formal sum given as one term of type kind or an iterable of
    terms, as a nonempty list."""
    terms = [terms] if isinstance(terms, kind) else list(terms)
    if not terms:
        raise ValueError("empty %s sum has no context" % noun)
    return terms


def write_json(value):
    """The text json.dumps gives for value, with each JsonText in it
    written by its own json_text."""
    if isinstance(value, JsonText):
        return value.json_text()
    if isinstance(value, dict):
        return "{%s}" % ", ".join("%s: %s" % (json.dumps(key), write_json(v))
                                  for key, v in value.items())
    if isinstance(value, (list, tuple)):
        return "[%s]" % ", ".join(map(write_json, value))
    return json.dumps(value)


class FieldElem(JsonText):
    """An element of Q(x1..xr) in canonical cancelled form. Immutable.

    num is a polynomial of ctx.ring; den is a positive int in the
    polynomial tier and a non-constant polynomial in the fraction tier."""

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx, num, den=1):
        self.ctx = ctx
        self.num = num
        self.den = den

    def den_poly(self):
        """The denominator as a polynomial of ctx.ring, in either tier."""
        den = self.den
        return self.ctx.ring.dtype({self.ctx.ring.zero_monom: den}) \
            if type(den) is int else den

    # -- ring/field operations ----------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.ctx is not self.ctx:
                self.ctx.check(other.ctx)
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.rational(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        ctx = self.ctx
        a, b = self.den, other.den
        if type(a) is int:
            if type(b) is int:
                d = lcm(a, b)
                num = _scaled(self.num, d // a, 1) + _scaled(other.num, d // b, 1)
                return FieldElem(ctx, *_coprime(num, d))
            return other + self
        if type(b) is int:
            # N/D + B/b: a non-constant irreducible factor of D*b would
            # divide N, so only integer content can cancel
            num = _scaled(self.num, b, 1) + other.num * a
            den = _scaled(a, b, 1)
            g = gcd(*num.values(), *den.values())
            return FieldElem(ctx, _scaled(num, 1, g), _scaled(den, 1, g))
        if a == b:
            return _settled(ctx, *_coprime(self.num + other.num, a))
        # Henrici: with g = gcd(a, b), no factor of a/g or b/g divides the
        # numerator below, so only a factor of g can cancel
        g, a1, b1 = _cofactors(a, b)
        _, num, g1 = _cofactors(self.num * b1 + other.num * a1, g)
        return _settled(ctx, num, a1 * b1 * g1)

    __radd__ = __add__

    def __neg__(self):
        return FieldElem(self.ctx, -self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.den, other.den
        if type(a) is int and type(b) is int:
            return FieldElem(self.ctx, *_coprime(self.num * other.num, a * b))
        if not self.num or not other.num:
            return self.ctx.zero
        # cross-cancellation; each factor's own num and den are coprime
        n1, d2 = _coprime(self.num, b)
        n2, d1 = _coprime(other.num, a)
        return _settled(self.ctx, n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def scale(self, c):
        """self * c for an int or Fraction c, by integer gcds alone."""
        p, q = c.numerator, c.denominator
        if not p:
            return self.ctx.zero
        num, den = self.num, self.den
        g = gcd(q, *num.values())
        if type(den) is int:
            h = gcd(p, den)
            return FieldElem(self.ctx, _scaled(num, p // h, g), den // h * (q // g))
        h = gcd(p, *den.values())
        return FieldElem(self.ctx, _scaled(num, p // h, g), _scaled(den, q // g, h))

    def __truediv__(self, other):
        rational = isinstance(other, (int, Fraction))
        other = other if rational else self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other:
            raise DivisionByZero("division by zero field element")
        if rational:
            return self.scale(1 / Fraction(other))
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n == 0:
            if not self.num:
                raise ValueError("0**0")
            return self.ctx.one
        base = self if n > 0 else self.inv()
        n = abs(n)
        return FieldElem(self.ctx, base.num ** n, base.den ** n)

    def inv(self):
        if not self.num:
            raise DivisionByZero("inverse of zero")
        return _settled(self.ctx, self.den_poly(), self.num)

    def is_polynomial(self):
        """Whether the element is in the polynomial tier."""
        return type(self.den) is int

    def fraction(self):
        """(num, den) as elements, den as an int in the polynomial tier."""
        den = self.den
        return FieldElem(self.ctx, self.num), den if type(den) is int else FieldElem(self.ctx, den)

    def log_parts(self):
        """[(b, e)]: the primitive parts b of the non-constant numerator
        (e = 1) and denominator (e = -1), with positive leading
        coefficients, in the polynomial tier; dlog self = sum e * dlog b."""
        parts = []
        for poly, e in ((self.num, 1), (self.den, -1)):
            if type(poly) is not int and not poly.is_ground:
                sign = 1 if poly.LC > 0 else -1
                parts.append((FieldElem(self.ctx, _scaled(poly, sign, gcd(*poly.values()))), e))
        return parts

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.rational(other)
        if not isinstance(other, FieldElem):
            return NotImplemented
        return (self.den == other.den and self.num == other.num
                and self.ctx is other.ctx)

    def __hash__(self):
        return hash((self.ctx, self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def is_zero(self):
        return not self.num

    def diff(self, i):
        """Partial derivative with respect to the i-th variable (0-based)."""
        if not 0 <= i < self.ctx.r:
            raise IndexError("variable index %d out of range" % i)
        x = self.ctx._gens[i].num
        num, den = self.num, self.den
        if type(den) is int:
            return FieldElem(self.ctx, *_coprime(num.diff(x), den))
        # den = g*d1 and den' = g*d2 give (num'*d1 - num*d2)/(g*d1^2), and
        # no factor of d1 divides that numerator, so only one of g can cancel
        g, d1, d2 = _cofactors(den, den.diff(x))
        num = num.diff(x) * d1 - num * d2
        if not num:
            return self.ctx.zero
        _, num, g1 = _cofactors(num, g)
        return _settled(self.ctx, num, g1 * d1 * d1)

    def __repr__(self):
        """num/den as sympy prints its rational functions: the numerator in
        parentheses unless it is one term, the denominator unless it is an
        integer or a variable."""
        num, den = self.num, self.den
        if den == 1:
            return str(num)
        text = "(%s)/" % num if len(num) > 1 else "%s/" % num
        return text + (str(den) if type(den) is int or den.is_generator else "(%s)" % den)

    # -- serialization -------------------------------------------------

    def json_text(self):
        """{"num": terms, "den": terms}, the terms [monomial, "c/1"] in
        sorted order; a polynomial-tier den is the one term of its int."""
        zero = self.ctx.ring.zero_monom
        term = '[[%s], "%%d/1"]' % ", ".join(["%d"] * len(zero))
        den = {zero: self.den} if type(self.den) is int else self.den
        num, den = ("[%s]" % ", ".join([term % (*mon, poly[mon]) for mon in sorted(poly)])
                    for poly in (self.num, den))
        return '{"num": %s, "den": %s}' % (num, den)

    @classmethod
    def from_json(cls, ctx, data):
        num = _poly_from_json(ctx, data["num"])
        den = _poly_from_json(ctx, data["den"])
        return num / den


# The kernel's time over the loop below, for units u with dense linear
# coefficients in x and y, at m = 1, 2, 3, 4, 8, 16 and 32 (2 cores,
# Python 3.11, sympy 1.14):
#   1/u          2.1   1.1   0.76  0.60  0.39  0.38  0.41
#   (t u')/u     8.8   2.0   1.1   0.75  0.41  0.37  0.40
# Below m = 4 its fixed cost (the degree scan, packing, unpacking) loses up
# to 16 us a call.  Such calls stay in the kernel: over 20 gate-trials
# rounds its 354 calls at m <= 2 took 10 ms of 0.94 s, 6 ms more than the
# loop took for them.
def series_quotient(w, v):
    """The coefficients q_0..q_m of q with q v = w in F[t]/(t^(m+1)), for
    lists w and v of m + 1 field elements with v_0 nonzero: the one
    division on F_m, solved degree by degree as
    q_k = (w_k - sum_(i=1..k) v_i q_(k-i)) / v_0.

    When v_0 is a nonzero rational and every coefficient of w and v is in
    the polynomial tier, the kernel solves it over packed monomials: each
    exponent tuple becomes one int, with one field per variable.  Every
    q_k and every partial sum of it has exponents at most D_w + m D_v, for
    D_w and D_v the largest exponents in w and v, so fields of
    (D (m + 2)).bit_length() + 1 bits, with D the larger of the two, never
    carry.  Each q_k is one {packed monomial: int} sum over the integer lcm
    of its terms' denominators, cancelled by one content gcd, and each
    monomial is unpacked once at the end.  Every other input runs the loop
    over field elements; it skips zero terms, and 1/v_0 when v_0 = 1."""
    v0 = v[0]
    ctx = v0.ctx
    zero = ctx.ring.zero_monom
    if (len(v0.num) != 1 or zero not in v0.num
            or not all(type(c.den) is int for c in (*w, *v))):
        inv0 = None if v0 == ctx.one else v0.inv()
        terms = [(i, c) for i, c in enumerate(v) if i and c]
        q = []
        for k, wk in enumerate(w):
            for i, c in terms:
                if i > k:
                    break
                if q[k - i]:
                    wk = wk - c * q[k - i]
            q.append(wk if inv0 is None else wk * inv0)
        return q
    top = max((e for c in (*w, *v) for mon in c.num for e in mon), default=0)
    width = (top * (len(w) + 1)).bit_length() + 1
    shifts = range(0, width * len(zero), width)
    weights = [1 << j for j in shifts]
    mask = (1 << width) - 1

    def pack(poly):
        return [(sum(map(mul, mon, weights)), c) for mon, c in poly.items()]

    # v_0 = p/s: dividing by it multiplies the numerator by s and the
    # denominator by |p|, with the sign of p
    p, s = v0.num[zero], v0.den
    sign = s if p > 0 else -s
    tail = [(i, pack(vi.num), vi.den) for i, vi in enumerate(v) if i and vi]
    q = []  # q_k as (packed numerator, den)
    for k, wk in enumerate(w):
        parts = [(vi, dv, q[k - i]) for i, vi, dv in tail if i <= k and q[k - i][0]]
        den = lcm(wk.den, *(dv * qi[1] for _, dv, qi in parts))
        f = den // wk.den
        acc = defaultdict(int, {key: c * f for key, c in pack(wk.num)})
        for vi, dv, (qi, dq) in parts:
            f = den // (dv * dq)
            for a, cv in vi:
                cv *= f
                for b, c in qi:
                    acc[a + b] -= cv * c
        acc = {key: c * sign for key, c in acc.items() if c}
        den *= abs(p)
        g = gcd(den, *acc.values())
        q.append(([(key, c // g) for key, c in acc.items()], den // g))
    mons = {key: tuple([key >> j & mask for j in shifts])
            for key in {key for num, _ in q for key, _ in num}}
    return [FieldElem(ctx, ctx.ring.dtype({mons[key]: c for key, c in num}), den)
            for num, den in q]


def fraction_text(c):
    """A rational number as the text "p/q", q >= 1 included."""
    return "%s/%s" % (c.numerator, c.denominator)


def parse_fraction(text):
    """The rational number written "p/q" or "p" with integers p and q."""
    text = text.strip()
    p, slash, q = text.partition("/")
    try:
        p, q = int(p), int(q) if slash else 1
    except ValueError:
        raise ParseError("malformed coefficient %r" % text) from None
    if not q:
        raise ParseError("coefficient %s has denominator 0" % text)
    return Fraction(p, q)


def _poly_from_json(ctx, data):
    return ctx.from_terms([(mon, parse_fraction(coef)) for mon, coef in data])


# -- text syntax ------------------------------------------------------
#
#   elem     := term (('+'|'-') term)*
#   term     := factor (('*'|'/')? factor)*    (juxtaposition multiplies)
#   factor   := ('-'|'+')* base ('^' exponent)?
#   exponent := ('-'|'+')* integer
#   base     := integer | variable | '(' elem ')'
#
# Juxtaposition takes a factor that starts with an integer, a variable or
# '(': 3t, 2(x+1), x y.

_OPS = set("+-*/^(),")

# Parentheses may nest at most MAX_NESTING deep.  Each level costs four
# frames of the recursive descent, so the bound keeps parsing well inside
# Python's recursion limit; deeper input is a ParseError.
MAX_NESTING = 100

# A token is a run of decimal digits, a letter or '_' followed by letters,
# digits and '_', or one other character that is not white space; re's
# \d, \w and \s are exactly str.isdecimal, str.isalnum (with '_') and
# str.isspace.  Text of ASCII letters, digits, white space and operators
# alone has no bad token; other text is checked token by token.
_TOKEN = re.compile(r"\d+|[^\W\d]\w*|\S")
_PLAIN = re.compile(r"[\w\s()*+,/^-]*\Z", re.ASCII)
_DIGITS_BEFORE = re.compile(r"\d*\Z")


def _tokenize(text):
    """Integers as ints, variables and operators as strings.  Any other
    character is a ParseError.  A digit that is not decimal ("²") ends in
    int()'s ValueError on the run of digits it belongs to."""
    if _PLAIN.match(text):
        return [int(tok) if tok[0].isdecimal() else tok for tok in _TOKEN.findall(text)]
    tokens = []
    for match in _TOKEN.finditer(text):
        tok = match.group()
        c = tok[0]
        if c.isdecimal():
            tokens.append(int(tok))
        elif c in _OPS or c.isalpha() or c == "_":
            tokens.append(tok)
        else:
            if c.isdigit():
                int(_DIGITS_BEFORE.search(text, 0, match.start()).group()
                    + "".join(takewhile(str.isdigit, tok)))
            raise ParseError("unexpected character %r in %r" % (c, text))
    return tokens


def _times(a, b):
    """The product of two term dicts."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        (mon, c), = b.items()
        if c == 1:
            return {tuple(map(add, m, mon)): k for m, k in a.items()}
        return {tuple(map(add, m, mon)): k * c for m, k in a.items()}
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            mon = tuple(map(add, m1, m2))
            out[mon] = out.get(mon, 0) + c1 * c2
    return {mon: c for mon, c in out.items() if c}


class _Reader:
    """The recursive descent over the tokens of one text.  A value is a
    {monomial: int or Fraction} term dict without zero terms for as long
    as it is a polynomial; a division by a non-constant or a power of a
    sum makes it a FieldElem, and FieldElem arithmetic takes over for
    every operation with one.  Each error is raised where the token
    stream reaches it, by the FieldElem operation that raised it before."""

    def __init__(self, ctx, text):
        self.ctx, self.text, self.pos = ctx, text, 0
        self.tokens = _tokenize(text) + [None]  # None marks the end
        self.zero = zero = ctx.ring.zero_monom
        self.vars = {name: zero[:i] + (1,) + zero[i + 1:] for i, name in enumerate(ctx.names)}

    def field(self, value):
        return self.ctx.from_terms(value.items()) if type(value) is dict else value

    def read(self):
        tokens = self.tokens
        depths = accumulate((tok == "(") - (tok == ")") for tok in tokens)
        if tokens.count("(") > MAX_NESTING and any(d > MAX_NESTING for d in depths):
            raise ParseError("parentheses nested deeper than %d" % MAX_NESTING)
        value = self.elem()
        if tokens[self.pos] is not None:
            raise ParseError("trailing input in %r" % self.text)
        return self.field(value)

    def elem(self):
        value = self.term()
        tokens = self.tokens
        while tokens[self.pos] in ("+", "-"):
            op = tokens[self.pos]
            self.pos += 1
            rhs = self.term()
            if type(value) is not dict or type(rhs) is not dict:
                value, rhs = self.field(value), self.field(rhs)
                value = value + rhs if op == "+" else value - rhs
                continue
            for mon, c in rhs.items():  # in place: every value is a new dict
                if op == "-":
                    c = -c
                if mon in value:
                    c += value.pop(mon)
                if c:
                    value[mon] = c
        return value

    def term(self):
        value = self.factor()
        tokens = self.tokens
        while True:
            op = tokens[self.pos]
            if op in ("*", "/"):
                self.pos += 1
            elif not (type(op) is int or op == "(" or type(op) is str and op not in _OPS):
                return value
            rhs = self.factor()
            terms = type(value) is dict and type(rhs) is dict
            if terms and op != "/":
                value = _times(value, rhs)
            elif terms and list(rhs) == [self.zero]:  # a nonzero rational
                value = {mon: Fraction(k, rhs[self.zero]) for mon, k in value.items()}
            else:
                value, rhs = self.field(value), self.field(rhs)
                value = value / rhs if op == "/" else value * rhs

    def signs(self):
        """-1 for an odd run of '-' signs (mixed with '+'), else 1."""
        sign = 1
        while self.tokens[self.pos] in ("+", "-"):
            if self.tokens[self.pos] == "-":
                sign = -sign
            self.pos += 1
        return sign

    def factor(self):
        sign = self.signs()
        value = self.base()
        if self.tokens[self.pos] == "^":
            self.pos += 1
            n = self.signs()
            tok = self.tokens[self.pos]
            self.pos += 1
            if type(tok) is not int:
                raise ParseError("exponent must be an integer in %r" % self.text)
            value = self.power(value, n * tok)
        if sign == 1:
            return value
        return {mon: -c for mon, c in value.items()} if type(value) is dict else -value

    def power(self, value, n):
        """value^n; one term to a power n >= 0 and a rational to any power
        stay term dicts."""
        if type(value) is dict and len(value) == 1:
            (mon, c), = value.items()
            if n >= 0:
                return {tuple([e * n for e in mon]): c ** n}
            if mon == self.zero:
                return {mon: Fraction(c) ** n}
        return self.field(value) ** n

    def base(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        if type(tok) is int:
            return {self.zero: tok} if tok else {}
        if tok == "(":
            value = self.elem()
            if self.tokens[self.pos] != ")":
                raise ParseError("expected %r in %r" % (")", self.text))
            self.pos += 1
            return value
        if tok in self.vars:
            return {self.vars[tok]: 1}
        if tok is None:
            raise ParseError("unexpected end of input in %r" % self.text)
        raise ParseError("unknown token %r in %r" % (tok, self.text))


def parse_elem(ctx: Context, text: str) -> FieldElem:
    """Parse the element grammar: integers, p/q, variables, + - * / ^, parens."""
    return _Reader(ctx, text).read()
