"""Milnor K-theory symbol calculus over F and over F(u).

Symbols are opaque presentations: equality in the K-group is never
decided here.  Instead the module provides realization oracles (the dlog
form, tame symbols at rational valuations), the boundary of the Gersten
complex in one variable, Weil reciprocity checking, and the two rewriting
procedures for symbols near a discrete valuation, each identity written
once: the two-entry identity (two_entry)

    {y1, y2} = -{1 + (y1 - 1)(y2 - 1)/y1, -(y1 - 1) y2},

which is {1+as, 1+bt} = -{1 + ab st/(1+as), -as(1+bt)} (the left side
is zero when 1 + (1+bt)as = 0), and the filtration rewriting that applies
it to move any symbol with sum ord(y_i - 1) >= m into (1 + pi^m R) K^M_n(F).
Tame symbols and the rewriting's last pass share one pi-adic expansion,
in which an entry pi^a u is u + a*pi.

A designated variable of the context plays the role of u (or of the
uniformizer pi).  A valuation is a closed point of the u-line, cut out by
an irreducible integer polynomial, or the point at infinity; the pi-adic
valuation is the rational point c = 0.  Orders are counted by exact
division by the point's polynomial, at closed points of any degree.
Residues exist only at the rational points u = c and at infinity, where
the residue field is F.  Residues at c = p/q and the dlog oracle work
over integer polynomials, with one field division per residue and none
in the dlog test.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import lcm, prod

from .errors import (DegenerateBranch, HypothesisViolated, NonRationalPoint,
                     NonRationalSupport, ZeroEntry)
from .scalars import FieldElem, ScaledSymbol, as_sum, parse_fraction


# -- symbols and valuations ---------------------------------------------

class FieldSymbol(ScaledSymbol):
    """A scaled Milnor symbol {y_1..y_n} of nonzero field elements; the
    empty symbol (n = 0) stands for its coefficient in Z or Q. Immutable."""

    __slots__ = ()

    def __init__(self, ctx, entries, coef=1):
        entries = tuple(entries)
        for y in entries:
            ctx.check(y.ctx)
            if y.is_zero():
                raise ZeroEntry("symbol entry is zero")
        super().__init__(ctx, entries, coef)

    def scale(self, c):
        return FieldSymbol(self.ctx, self.entries, self.coef * Fraction(c))

    @classmethod
    def from_json(cls, ctx, data):
        return cls(ctx, [FieldElem.from_json(ctx, y) for y in data["entries"]],
                   parse_fraction(data["coef"]))


def collect_terms(terms):
    """Merge symbols with identical entry tuples and drop zero terms.
    Presentation-level bookkeeping only, not K-group equality."""
    acc, ctx = {}, None
    for sym in terms:
        ctx = sym.ctx
        acc[sym.entries] = acc.get(sym.entries, 0) + sym.coef
    return [FieldSymbol(ctx, e, c) for e, c in acc.items() if c != 0]


class Valuation:
    """A discrete valuation of F(u) trivial on F: Valuation(ctx, upos, fac)
    is the closed point of the u-line cut out by fac, a primitive
    irreducible polynomial of ctx.ring of positive degree in u, and fac
    None is the point at infinity.  ord works at closed points of any
    degree.  The residue exists only where the residue field is F: at
    infinity and at the rational points u = c, where fac is linear in u
    with root c = point, such as q*u - p for c = p/q (c = 0 doubles as the
    pi-adic valuation of the local ring at the designated variable)."""

    __slots__ = ("ctx", "upos", "base", "fac", "point")

    def __init__(self, ctx, upos, fac=None, point=None):
        self.ctx = ctx
        self.upos = upos
        self.base = ctx.drop(upos)
        self.fac = fac
        self.point = point

    @classmethod
    def finite(cls, ctx, upos, c):
        """The rational point u = c for c in the base field."""
        c = ctx.drop(upos).elem(c)
        # for c = p/q in canonical form the numerator of u - c is q*u - p
        return cls(ctx, upos, (ctx.var(upos) - ctx.lift(c)).num, c)

    @classmethod
    def infinity(cls, ctx, upos):
        return cls(ctx, upos)

    def __repr__(self):
        u = self.ctx.names[self.upos]
        if self.fac is None:
            return "(%s = infinity)" % u
        if self.point is None:
            return "(%s = 0)" % self.fac
        return "(%s = %s)" % (u, self.point)

    def _parts(self, f):
        self.ctx.check(f.ctx)
        if f.is_zero():
            raise ZeroEntry("valuation of zero")
        return f.num, f.den_poly()

    def ord(self, f: FieldElem) -> int:
        num, den = self._parts(f)
        ctx, fac, upos = self.ctx, self.fac, self.upos
        if fac is None:
            return ctx.degree(den, upos) - ctx.degree(num, upos)
        return ctx.strip(num, fac, upos)[0] - ctx.strip(den, fac, upos)[0]

    def ord_residue(self, f: FieldElem):
        """(ord(f), residue of the unit part f * uniformizer^(-ord)), the
        uniformizer being u - c, or 1/u at infinity."""
        num, den = self._parts(f)
        ctx, base, fac, upos = self.ctx, self.base, self.fac, self.upos
        if fac is None:
            dn, dd = ctx.degree(num, upos), ctx.degree(den, upos)
            return dd - dn, base.split(num, upos)[dn] / base.split(den, upos)[dd]
        if self.point is None:
            raise NonRationalPoint("no residue at the non-rational point %s" % self)
        p, q = self.point.fraction()
        (a, hn, dn), (b, hd, dd) = self._at_point(num, p, q), self._at_point(den, p, q)
        # each side g is h / q^d at c, and fac = lead * (u - c) gives lead^(a - b)
        for x, k in ((q, dd - dn), (base.split(fac, upos)[1], a - b)):
            if k:
                hn, hd = (hn * x ** k, hd) if k > 0 else (hn, hd * x ** -k)
        return a - b, hn / hd

    def _at_point(self, poly, p, q):
        """(k, h, d) for poly = fac^k * g with g(c) != 0 of degree d in u
        and h = q^d * g(p/q), by the Horner rule homogeneous in p and q over
        g's coefficients in u; fac is divided out once, where poly(c) = 0."""
        k = 0
        for stripped in (False, True):
            coeffs = self.base.split(poly, self.upos)
            d = max(coeffs)
            h, qk = coeffs[d], 1
            for e in range(d - 1, -1, -1):
                qk, h = qk * q, h * p
                if e in coeffs:
                    h = h + coeffs[e] * qk
            if h or stripped:
                return k, h, d
            k, poly = self.ctx.strip(poly, self.fac, self.upos)


def _sign(ks):
    """The sign of the permutation that sorts the distinct ks."""
    return (-1) ** sum(a > b for i, a in enumerate(ks) for b in ks[i + 1:])


def dlog_is_zero(terms) -> bool:
    """Whether the form sum coef * dlog(y_1)^..^dlog(y_n) of a symbol sum
    is zero; the canonical sound (but not complete) equality oracle.

    dlog y is a signed sum of dlog b over the parts b of y (log_parts), so
    the form is sum m_K dlog b_K over sorted index sets K (in degree 0, the
    coefficient sum).  Unless every m_K is 0, the form is zero when each
    sum_K m_K det(d_I b_K) prod_(j not in K) b_j is: its dx_I coefficient
    times the product of the b_j in a K with m_K != 0."""
    terms = as_sum(terms)
    ctx, n = terms[0].ctx, terms[0].degree
    for sym in terms:
        ctx.check(sym.ctx)
        if sym.degree != n:
            raise ValueError("mixed degrees in one symbol sum")
    if n > ctx.r:
        return True
    basis, m = {}, {}
    for sym in terms:
        for pick in product(*([(basis.setdefault(b, len(basis)), e) for b, e in y.log_parts()]
                              for y in sym.entries)):
            ks = [k for k, _ in pick]
            if len(set(ks)) == n:
                K = tuple(sorted(ks))
                m[K] = m.get(K, 0) + sym.coef * prod(e for _, e in pick) * _sign(ks)
    m = {K: c for K, c in m.items() if c}
    if not m:
        return True
    bs, used = list(basis), set().union(*m)
    grads = {k: [bs[k].diff(i) for i in range(ctx.r)] for k in used}
    scale = lcm(*(c.denominator for c in m.values()))
    rest = {K: prod((bs[j] for j in used.difference(K)), start=ctx.one) * int(c * scale)
            for K, c in m.items()}
    for idx in combinations(range(ctx.r), n):
        total = ctx.zero
        for K, rk in rest.items():
            for sigma in permutations(idx):
                term = prod((grads[k][i] for k, i in zip(K, sigma)), start=rk)
                total = total + (term if _sign(sigma) > 0 else -term)
        if total:
            return False
    return True


def _pi_expansion(parts, pi_factor, pi_value):
    """The multilinear expansion of a symbol over the pi-parts of its
    entries.  An entry pi^a * u, given as the pair (a, u), is u + a*pi in
    additive notation.  Yields (mult, entries) for each choice of one
    summand per entry, the chosen pi's replaced in place by pi_value:
    mult is the product of a * pi_factor over the chosen pi's."""
    choices = [[(1, u)] + ([(a * pi_factor, pi_value)] if a else [])
               for a, u in parts]
    for pick in product(*choices):
        yield prod(f for f, _ in pick), [y for _, y in pick]


def tame_symbol(v: Valuation, sym: FieldSymbol):
    """Gersten boundary of one symbol at a rational valuation, as a formal
    sum of symbols over the residue field F.

    Each entry is split as pi^a * u and the symbol is expanded
    multilinearly.  Every pi after the first becomes -1 in place, by
    {.., pi, A, pi, ..} = {.., pi, A, -1, ..}: move the second pi next to
    the first across A, apply {pi, pi} = {pi, -1} and move -1 back, and
    the two signs cancel.  The first pi, at place p, is then contracted
    with the sign (-1)^p, leaving the residues of the units; a symbol of
    units has no boundary."""
    minus_one = v.base.rational(-1)
    out = []
    for mult, items in _pi_expansion([v.ord_residue(y) for y in sym.entries], 1, None):
        if None not in items:
            continue
        p = items.index(None)
        rest = [minus_one if y is None else y for y in items[p + 1:]]
        out.append(FieldSymbol(v.base, items[:p] + rest, sym.coef * mult * (-1) ** p))
    return out


def rational_support(ctx, values, upos):
    """The valuations at the rational points where some value has a zero
    or a pole, then at infinity if some value has one there, and the
    distinct non-rational factors, all in first-seen order."""
    base = ctx.drop(upos)
    points = {}
    nonrational = []
    for y in values:
        for poly in (y.num, y.den_poly()):
            for fac in ctx.u_factors(poly, upos):
                d = ctx.degree(fac, upos)
                if d == 1:
                    coeffs = base.split(fac, upos)
                    points.setdefault(-coeffs.get(0, base.zero) / coeffs[1], fac)
                elif d > 1:
                    nonrational.append(str(fac))
    vals = [Valuation(ctx, upos, fac, c) for c, fac in points.items()]
    inf = Valuation.infinity(ctx, upos)
    if any(inf.ord(y) for y in values):
        vals.append(inf)
    return vals, list(dict.fromkeys(nonrational))


def gersten_boundary(terms, upos):
    """Tame symbols of a symbol sum over F(u) at every rational point of
    its support (infinity included), as a list of (Valuation, symbol sum).
    Raises NonRationalSupport before any tame symbol when the support has
    a factor of degree > 1 in u."""
    terms = as_sum(terms)
    vals, nonrational = rational_support(
        terms[0].ctx, [y for sym in terms for y in sym.entries], upos)
    if nonrational:
        raise NonRationalSupport("support outside rational points: %s" % nonrational)
    out = []
    for v in vals:
        parts = [part for sym in terms for part in tame_symbol(v, sym)]
        if parts:
            out.append((v, parts))
    return out


def zero_by_realizations(terms):
    """Necessary-condition test that a symbol sum over F vanishes: zero
    dlog form, and zero boundary recursively in every variable down to Q.
    Returns (consistent, evidence)."""
    terms = list(terms)
    evidence = {}
    if not terms:
        return True, evidence
    ctx = terms[0].ctx
    n = terms[0].degree
    if n == 0:
        total = sum((s.coef for s in terms), Fraction(0))
        return total == 0, {"coefficient_sum": str(total)}
    ok = evidence["dlog_zero"] = dlog_is_zero(terms)
    for i in range(ctx.r):
        try:
            bnd = gersten_boundary(terms, i)
        except NonRationalSupport:
            evidence["var_%s" % ctx.names[i]] = "skipped: non-rational support"
            continue
        sub_ok = True
        for v, parts in bnd:
            good, _ = zero_by_realizations(parts)
            sub_ok = sub_ok and good
        evidence["var_%s" % ctx.names[i]] = sub_ok
        ok = ok and sub_ok
    return ok, evidence


def weil_reciprocity_check(terms, upos):
    """Sum the Gersten boundary of a symbol sum over F(u) across all
    rational points including infinity and verify the total vanishes
    under the realization oracles.  Requires fully rational support:
    gersten_boundary raises NonRationalSupport otherwise."""
    bnd = gersten_boundary(terms, upos)
    total = [part for _v, parts in bnd for part in parts]
    if not total:
        return True, {"boundary": "empty"}
    ok, evidence = zero_by_realizations(total)
    evidence["points"] = [str(v) for v, _ in bnd]
    return ok, evidence


def two_entry(y1, y2):
    """The right side of the two-entry identity {y1, y2} = -{w, v}, for
    y1 != 1: w = 1 + (y1 - 1)(y2 - 1)/y1 and v = -(y1 - 1) y2.  As
    w = (1 + (y1 - 1) y2)/y1, w vanishes exactly in the degenerate branch
    y2 = 1/(1 - y1), where {y1, y2} = -{y1, 1 - y1} is zero; there
    DegenerateBranch is raised."""
    one = y1.ctx.one
    a = (y1 - one) * y2
    num = one + a
    if num.is_zero():
        raise DegenerateBranch("1 + (1+bt)as = 0: left side is zero")
    return num / y1, -a


def elem_identity_instance(a, b, s, tau):
    """Both sides of the two-entry identity {1+as, 1+bt} =
    -{1 + ab/(1+as) st, -as(1+bt)}, from two_entry; raises
    DegenerateBranch in the 1 + (1+bt)as = 0 case, where the left side
    alone is zero."""
    ctx = a.ctx
    for val in (a, b, s, tau):
        if val.is_zero():
            raise ZeroEntry("identity inputs must be nonzero")
    y1, y2 = ctx.one + a * s, ctx.one + b * tau
    if y1.is_zero() or y2.is_zero():
        raise ZeroEntry("1+as and 1+bt must be nonzero")
    w, v = two_entry(y1, y2)
    return FieldSymbol(ctx, [y1, y2], 1), FieldSymbol(ctx, [w, v], -1)


def rewrite_filtration(sym: FieldSymbol, m: int, upos: int):
    """Rewrite a symbol with sum ord_pi(y_i - 1) >= m, at a level m >= 1,
    as a list of pairs (w, residual symbol) with ord_pi(w - 1) >= m; the
    represented class is sum coef * {w, residual entries...}, the
    coefficients living on the residual symbols.

    Until some entry lies in 1 + pi^m, a unit y1 of the local ring moves
    to the front and two_entry turns {y1, y2} into -{w, v} = {v, w}; v
    joins the residuals, and w, with ord(w - 1) = ord(y1 - 1) + ord(y2 - 1)
    as y1 is a unit, replaces y1 and y2.  So the orders keep their sum
    >= m: while all are below m >= 1, two entries or more are left and one
    has positive order, a unit front.  The residual entries are then
    cleared of pi-powers by the pi-adic expansion, each pi becoming -u0 in
    place with the factor -1/e, by {w, pi} = -(1/e){w, -u0} for
    w = 1 + u0 pi^e."""
    if m < 1:
        raise HypothesisViolated("filtration level m = %d < 1" % m)
    ctx = sym.ctx
    one = ctx.one
    pi = ctx.var(upos)
    v = Valuation.finite(ctx, upos, ctx.drop(upos).zero)
    if any((y - one).is_zero() for y in sym.entries):
        return []
    ks = tuple(v.ord(y - one) for y in sym.entries)
    if sum(ks) < m:
        raise HypothesisViolated("sum of ord(y_i - 1) = %d < %d" % (sum(ks), m))
    # the input is sign * {residuals, entries}, ks the orders of entries - 1
    entries, residuals, sign = sym.entries, (), 1
    while all(k < m for k in ks):
        front = next(i for i, k in enumerate(ks)
                     if k > 0 or k == 0 and v.ord(entries[i]) == 0)
        entries = (entries[front],) + entries[:front] + entries[front + 1:]
        ks = (ks[front],) + ks[:front] + ks[front + 1:]
        try:
            w, res = two_entry(entries[0], entries[1])
        except DegenerateBranch:
            return []
        sign *= (-1) ** front
        residuals += (res,)
        entries, ks = (w,) + entries[2:], (ks[0] + ks[1],) + ks[2:]
    i = next(i for i, k in enumerate(ks) if k >= m)
    w, e = entries[i], ks[i]
    sign *= (-1) ** (len(residuals) + i)
    rest = residuals + entries[:i] + entries[i + 1:]
    minus_u0 = (one - w) * pi ** -e
    parts = [(j, y * pi ** -j if j else y) for y, j in zip(rest, map(v.ord, rest))]
    return [(w, FieldSymbol(ctx, ys, sym.coef * sign * mult))
            for mult, ys in _pi_expansion(parts, Fraction(-1, e), minus_u0)]
