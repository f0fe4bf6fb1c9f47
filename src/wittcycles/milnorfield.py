"""Milnor K-theory symbol calculus over F and over F(u).

Symbols are opaque presentations: equality in the K-group is never
decided here.  Instead the module provides realization oracles (the dlog
form, tame symbols at rational valuations), the boundary of the Gersten
complex in one variable, Weil reciprocity checking, and the two rewriting
procedures for symbols near a discrete valuation: the two-entry identity

    {1+as, 1+bt} = -{1 + ab/(1+as) st, -as(1+bt)}   (or 0 when
    1 + (1+bt)as = 0)

and the filtration rewriting that moves any symbol with
sum ord(y_i - 1) >= m into (1 + pi^m R) K^M_n(F).

A designated variable of the context plays the role of u (or of the
uniformizer pi).  A valuation is a closed point of the u-line, cut out by
an irreducible integer polynomial, or the point at infinity; the pi-adic
valuation is the rational point c = 0.  Orders are counted by exact
division by the point's polynomial, at closed points of any degree.
Residues exist only at the rational points u = c and at infinity, where
the residue field is F.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (DegenerateBranch, HypothesisViolated, NonRationalPoint,
                     NonRationalSupport, NoUnitEntry, ZeroEntry)
from .forms import DiffForm, dlog_wedge
from .scalars import FieldElem, fraction_text, parse_fraction


# -- symbols and valuations ---------------------------------------------

class FieldSymbol:
    """A scaled Milnor symbol {y_1..y_n} of nonzero field elements; the
    empty symbol (n = 0) stands for its coefficient in Z or Q. Immutable."""

    __slots__ = ("ctx", "entries", "coef")

    def __init__(self, ctx, entries, coef=1):
        entries = tuple(entries)
        for y in entries:
            ctx.check(y.ctx)
            if y.is_zero():
                raise ZeroEntry("symbol entry is zero")
        self.ctx = ctx
        self.entries = entries
        self.coef = Fraction(coef)

    @property
    def degree(self):
        return len(self.entries)

    def scale(self, c):
        return FieldSymbol(self.ctx, self.entries, self.coef * Fraction(c))

    def __repr__(self):
        return "%s*{%s}" % (self.coef, ", ".join(str(y) for y in self.entries))

    def to_json(self):
        return {"coef": fraction_text(self.coef),
                "entries": [y.to_json() for y in self.entries]}

    @classmethod
    def from_json(cls, ctx, data):
        return cls(ctx, [FieldElem.from_json(ctx, y) for y in data["entries"]],
                   parse_fraction(data["coef"]))


def collect_terms(terms):
    """Merge symbols with identical entry tuples and drop zero terms.
    Presentation-level bookkeeping only, not K-group equality."""
    order = []
    acc = {}
    ctx = None
    for sym in terms:
        ctx = sym.ctx
        if sym.entries not in acc:
            order.append(sym.entries)
            acc[sym.entries] = Fraction(0)
        acc[sym.entries] += sym.coef
    return [FieldSymbol(ctx, e, acc[e]) for e in order if acc[e] != 0]


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
        a, num = ctx.strip(num, fac, upos)
        b, den = ctx.strip(den, fac, upos)
        residue = self._eval(num) / self._eval(den)
        if a != b:
            # fac = lead * (u - c), so fac^k contributes lead^k
            residue = residue * base.split(fac, upos)[1] ** (a - b)
        return a - b, residue

    def _eval(self, poly):
        """poly at u = c, by Horner's rule over its coefficients in u."""
        coeffs = self.base.split(poly, self.upos)
        total = self.base.zero
        for e in range(max(coeffs), -1, -1):
            total = total * self.point + coeffs.get(e, self.base.zero)
        return total


def dlog_realization(terms) -> DiffForm:
    """The form sum coef * dlog(y_1)^..^dlog(y_n) of a symbol sum; the
    canonical sound (but not complete) equality oracle."""
    if isinstance(terms, FieldSymbol):
        terms = [terms]
    terms = list(terms)
    if not terms:
        raise ValueError("empty symbol sum has no context")
    ctx = terms[0].ctx
    n = terms[0].degree
    total = DiffForm.zero(ctx, n)
    for sym in terms:
        if sym.degree != n:
            raise ValueError("mixed degrees in one symbol sum")
        total = total + dlog_wedge(ctx, sym.entries).scale(sym.coef)
    return total


def tame_symbol(v: Valuation, sym: FieldSymbol):
    """Gersten boundary of one symbol at a rational valuation, as a formal
    sum of symbols over the residue field F.

    Each entry is split as pi^a * w; the symbol is expanded multilinearly,
    repeated uniformizers are removed with {pi, pi} = {pi, -1}, and a
    single leading pi is contracted, leaving the residues of the units."""
    data = [v.ord_residue(y) for y in sym.entries]
    hot = [i for i, (a, _) in enumerate(data) if a != 0]
    out = []
    for mask in range(1, 1 << len(hot)):
        S = [hot[k] for k in range(len(hot)) if mask >> k & 1]
        mult = 1
        for i in S:
            mult *= data[i][0]
        items = []
        for i in range(len(data)):
            items.append(None if i in S else data[i][1])  # None marks pi
        sign = 1
        while True:
            pis = [p for p, it in enumerate(items) if it is None]
            if len(pis) < 2:
                break
            i, j = pis[0], pis[1]
            items.pop(j)
            items.insert(i + 1, v.base.rational(-1))
            sign *= (-1) ** (j - i - 1)
        p = items.index(None)
        sign *= (-1) ** p
        items.pop(p)
        out.append(FieldSymbol(v.base, items, sym.coef * mult * sign))
    return out


def rational_support(ctx, values, upos):
    """The valuations at the rational points of the u-line where some
    value has a zero or a pole, in first-seen order, then at infinity if
    some value has a zero or a pole there; and the non-rational factors."""
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
    return vals, nonrational


def gersten_boundary(terms, upos):
    """Tame symbols of a symbol sum over F(u) at every rational point of
    its support (infinity included); returns (list of (Valuation, symbol
    sum), list of non-rational factors)."""
    if isinstance(terms, FieldSymbol):
        terms = [terms]
    terms = list(terms)
    vals, nonrational = rational_support(
        terms[0].ctx, [y for sym in terms for y in sym.entries], upos)
    # with non-rational support the point enumeration is incomplete, so
    # only the sound finite rational points are returned and infinity is
    # left out; individual values remain available via tame_symbol
    if nonrational:
        vals = [v for v in vals if v.fac is not None]
    out = []
    for v in vals:
        parts = [part for sym in terms for part in tame_symbol(v, sym)]
        if parts:
            out.append((v, parts))
    return out, nonrational


def zero_by_realizations(terms, depth):
    """Necessary-condition test that a symbol sum over F vanishes: zero
    dlog form, and zero boundary recursively in every variable.  Returns
    (consistent, evidence)."""
    terms = list(terms)
    evidence = {}
    if not terms:
        return True, evidence
    ctx = terms[0].ctx
    n = terms[0].degree
    if n == 0:
        total = sum((s.coef for s in terms), Fraction(0))
        return total == 0, {"coefficient_sum": str(total)}
    form = dlog_realization(terms)
    evidence["dlog_zero"] = form.is_zero()
    ok = form.is_zero()
    if depth > 0:
        for i in range(ctx.r):
            bnd, nonrational = gersten_boundary(terms, i)
            if nonrational:
                evidence["var_%s" % ctx.names[i]] = "skipped: non-rational support"
                continue
            sub_ok = True
            for v, parts in bnd:
                good, _ = zero_by_realizations(parts, depth - 1)
                sub_ok = sub_ok and good
            evidence["var_%s" % ctx.names[i]] = sub_ok
            ok = ok and sub_ok
    return ok, evidence


def weil_reciprocity_check(terms, upos):
    """Sum the Gersten boundary of a symbol sum over F(u) across all
    rational points including infinity and verify the total vanishes
    under the realization oracles.  Requires fully rational support."""
    if isinstance(terms, FieldSymbol):
        terms = [terms]
    terms = list(terms)
    bnd, nonrational = gersten_boundary(terms, upos)
    if nonrational:
        raise NonRationalSupport("support outside rational points: %s" % nonrational)
    total = []
    for _v, parts in bnd:
        total.extend(parts)
    if not total:
        return True, {"boundary": "empty"}
    ok, evidence = zero_by_realizations(total, depth=terms[0].ctx.r)
    evidence["points"] = [str(v) for v, _ in bnd]
    return ok, evidence


def elem_identity_instance(a, b, s, tau):
    """Both sides of the two-entry identity {1+as, 1+bt} =
    -{1 + ab/(1+as) st, -as(1+bt)}; raises DegenerateBranch in the
    1 + (1+bt)as = 0 case, where the left side alone is zero."""
    ctx = a.ctx
    for val in (a, b, s, tau):
        if val.is_zero():
            raise ZeroEntry("identity inputs must be nonzero")
    one = ctx.one
    lhs1, lhs2 = one + a * s, one + b * tau
    if lhs1.is_zero() or lhs2.is_zero():
        raise ZeroEntry("1+as and 1+bt must be nonzero")
    if (one + lhs2 * a * s).is_zero():
        raise DegenerateBranch("1 + (1+bt)as = 0: left side is zero")
    rhs1 = one + (a * b / lhs1) * s * tau
    rhs2 = -(a * s * lhs2)
    if rhs1.is_zero():
        raise ZeroEntry("right-hand entry vanished")
    lhs = FieldSymbol(ctx, [lhs1, lhs2], 1)
    rhs = FieldSymbol(ctx, [rhs1, rhs2], -1)
    return lhs, rhs


def rewrite_filtration(sym: FieldSymbol, m: int, upos: int):
    """Rewrite a symbol with sum ord_pi(y_i - 1) >= m as a formal sum of
    pairs (w, residual symbol) with ord_pi(w - 1) >= m, following the
    two-entry identity inductively.  The residual entries are then
    cleared of pi-powers using {w, pi} = -(1/e){w, -u0} where
    w = 1 + u0 pi^e, which brings in rational coefficients.

    Returns a list of (w: FieldElem, residual: FieldSymbol) pairs whose
    coefficients live on the residual symbols; the represented class is
    sum coef * {w, residual entries...}."""
    ctx = sym.ctx
    pi = ctx.var(upos)
    v = Valuation.finite(ctx, upos, ctx.drop(upos).zero)

    def recurse(entries, coef):
        entries = list(entries)
        one = ctx.one
        if any((y - one).is_zero() for y in entries):
            return []
        ms = [v.ord(y - one) for y in entries]
        # early exit: an entry already lies in 1 + pi^m
        for i, mi in enumerate(ms):
            if mi >= m:
                rest = entries[:i] + entries[i + 1:]
                return [(entries[i], FieldSymbol(ctx, rest, coef * (-1) ** i))]
        if len(entries) == 1:
            raise HypothesisViolated("single entry below the filtration level")
        # front entry must be a unit of the local ring
        front = None
        for i, y in enumerate(entries):
            if ms[i] >= 0 and v.ord(y) == 0:
                front = i
                break
        if front is None:
            raise NoUnitEntry("no entry is a unit of the local ring")
        if front != 0:
            coef = coef * (-1) ** front
            entries.insert(0, entries.pop(front))
            ms.insert(0, ms.pop(front))
        y1, y2 = entries[0], entries[1]
        m1, m2 = ms[0], ms[1]
        u1 = (y1 - one) * pi ** (-m1)
        u2 = (y2 - one) * pi ** (-m2)
        if (one + y2 * u1 * pi ** m1).is_zero():
            return []  # the degenerate branch: the symbol is zero
        w = one + u1 * u2 * pi ** (m1 + m2) / y1
        vres = -(u1 * y2 * pi ** m1)
        if len(entries) == 2:
            return [(w, FieldSymbol(ctx, [vres], -coef))]
        inner = recurse([w] + entries[2:], coef)
        return [(wk, FieldSymbol(ctx, (vres,) + sk.entries, -sk.coef))
                for wk, sk in inner]

    total = sum(v.ord(y - ctx.one) for y in sym.entries if not (y - ctx.one).is_zero())
    if any((y - ctx.one).is_zero() for y in sym.entries):
        return []
    if total < m:
        raise HypothesisViolated("sum of ord(y_i - 1) = %d < %d" % (total, m))
    pairs = recurse(sym.entries, sym.coef)
    # clear pi-powers from residual entries: {w, pi} = -(1/e){w, -u0}
    cleaned = []
    stack = list(pairs)
    while stack:
        w, res = stack.pop()
        for p, y in enumerate(res.entries):
            j = v.ord(y)
            if j == 0:
                continue
            e = v.ord(w - ctx.one)
            u0 = (w - ctx.one) * pi ** (-e)
            unit = y * pi ** (-j)
            others = res.entries[:p] + res.entries[p + 1:]
            stack.append((w, FieldSymbol(ctx, res.entries[:p] + (unit,) + res.entries[p + 1:],
                                         res.coef)))
            stack.append((w, FieldSymbol(ctx, (-u0,) + others,
                                         res.coef * j * (-1) ** p * Fraction(-1, e))))
            break
        else:
            cleaned.append((w, res))
    return cleaned
