"""The truncated polynomial ring F_m = F[t]/(t^(m+1)).

Elements are coefficient tuples comps = (c_0..c_m), forms.LevelTuples
with extra = 1.  There is one truncated product (forms.series_product)
and one division, scalars.series_quotient, solved degree by degree.
log_t and trunc_dlog read the log derivative t u'/u, the one division by
u that each makes.  exp_t and log_t are mutually inverse between the
ideal (t) and the principal units 1 + (t); they need denominators, so
characteristic zero is baked in.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadConstantTerm, NotAUnit, ParseError
from .forms import DiffForm, FormOnTrunc, LevelTuple, dlog, series_product
from .scalars import Context, FieldElem, parse_elem, series_quotient


class TruncElem(LevelTuple):
    """An element of F_m as the coefficient tuple comps = (c_0..c_m).
    Immutable."""

    __slots__ = ()
    extra = 1
    json_key = "coeffs"

    @classmethod
    def one(cls, ctx, level):
        return cls(ctx, level, (ctx.one,) + (ctx.zero,) * level)

    @classmethod
    def t(cls, ctx, level):
        return cls(ctx, level, (ctx.zero, ctx.one) + (ctx.zero,) * (level - 1))

    @classmethod
    def constant(cls, value: FieldElem, level):
        return cls(value.ctx, level, (value,) + (value.ctx.zero,) * level)

    def is_unit(self):
        return not self.comps[0].is_zero()

    def is_principal(self):
        """True iff the element lies in 1 + t F_m."""
        return self.comps[0] == self.ctx.one

    def _check(self, other):
        """other, with a constant read as an element of F_m."""
        if isinstance(other, (int, Fraction, FieldElem)):
            return TruncElem.constant(self.ctx.elem(other), self.level)
        return super()._check(other)

    __radd__ = LevelTuple.__add__

    def __rsub__(self, other):
        return -(self - other)

    def scale(self, c):
        """self * c for a rational or field-element constant c, coefficient
        by coefficient."""
        return self._like([a * c for a in self.comps])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldElem)):
            return self.scale(other)
        other = self._check(other)
        return TruncElem(self.ctx, self.level, series_product(
            self.comps, other.comps, self.level + 1, self.ctx.zero))

    __rmul__ = __mul__

    def inv(self):
        """Inverse of a unit, as 1 / self."""
        return TruncElem.one(self.ctx, self.level) / self

    def __truediv__(self, other):
        """The one division on F_m, q with q v = w for a unit v, solved by
        scalars.series_quotient."""
        other = self._check(other)
        if not other.comps[0]:
            raise NotAUnit("constant term is zero")
        return TruncElem(self.ctx, self.level, series_quotient(self.comps, other.comps))

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        base = self if n >= 0 else self.inv()
        result = TruncElem.one(self.ctx, self.level)
        for _ in range(abs(n)):
            result = result * base
        return result

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.comps):
            if c.is_zero():
                continue
            if i == 0:
                parts.append("(%s)" % c)
            elif i == 1:
                parts.append("(%s)*t" % c)
            else:
                parts.append("(%s)*t^%d" % (c, i))
        return " + ".join(parts) if parts else "0"


def exp_t(a: TruncElem) -> TruncElem:
    """exp of a nilpotent, sum_k a^k / k!, by the O(m^2) recurrence
    k e_k = sum_(j=1..k) j a_j e_(k-j) from e' = a' e."""
    if not a.comps[0].is_zero():
        raise BadConstantTerm("exp_t needs constant term 0")
    ja = [c.scale(j) for j, c in enumerate(a.comps)]
    e = [a.ctx.one]
    for k in range(1, a.level + 1):
        acc = a.ctx.zero
        for j in range(1, k + 1):
            if ja[j]:
                acc = acc + ja[j] * e[k - j]
        e.append(acc.scale(Fraction(1, k)))
    return TruncElem(a.ctx, a.level, e)


def log_derivative(u: TruncElem) -> TruncElem:
    """t u'/u of a unit u: sum_k k u_k t^k divided by u.  Additive in
    products of units; for u = gamma(a) it is minus the ghost tuple of a."""
    return TruncElem(u.ctx, u.level, [c.scale(k) for k, c in enumerate(u.comps)]) / u


def log_t(u: TruncElem) -> TruncElem:
    """log of a principal unit, sum_k (-1)^(k+1) (u-1)^k / k: from
    t (log u)' = t u'/u, its t^k coefficient is (t u'/u)_k / k."""
    if not u.is_principal():
        raise BadConstantTerm("log_t needs constant term 1")
    return TruncElem(u.ctx, u.level, [c.scale(Fraction(1, k)) if k else c
                                      for k, c in enumerate(log_derivative(u).comps)])


def trunc_dlog(u: TruncElem) -> FormOnTrunc:
    """u^(-1) du as a 1-form over F_m, read off the log derivative
    L = t u'/u alone: dlog u = dlog(u_0) + d log(u/u_0), and log(u/u_0)
    has t^k coefficient L_k / k.  So the t^0 part is dlog(u_0), the t^k
    part d(L_k / k), and the t^k dt part (u'/u)_k = L_(k+1).  Additive in
    products of units."""
    if not u.is_unit():
        raise NotAUnit("dlog of a non-unit")
    ell = log_derivative(u).comps
    tparts = [DiffForm.scalar(c.scale(Fraction(1, k))).d() for k, c in enumerate(ell) if k]
    return FormOnTrunc.of(u.ctx, 1, u.level, [dlog(u.comps[0])] + tparts,
                          [DiffForm.scalar(c) for c in ell[1:]])


def embed_form(a: TruncElem) -> FormOnTrunc:
    """View a ring element as a degree-0 form over F_m."""
    return FormOnTrunc.of(a.ctx, 0, a.level, [DiffForm.scalar(c) for c in a.comps])


def parse_trunc(ctx: Context, level: int, text: str) -> TruncElem:
    """Parse `c0 + c1*t + ... + cm*t^m` with field-element coefficients.

    Parsed in the extended variable list (names, t); the denominator must
    be free of t, and t-degrees above the level are dropped."""
    if "t" in ctx.names:
        raise ParseError("variable list may not shadow t")
    inner = Context(ctx.names + ("t",))
    value = parse_elem(inner, text)
    tpos = inner.r - 1
    dens = ctx.split(value.den_poly(), tpos)
    if list(dens) != [0]:
        raise ParseError("t may not appear in denominators: %r" % text)
    coeffs = [ctx.zero] * (level + 1)
    for e, c in ctx.split(value.num, tpos).items():
        if e <= level:
            coeffs[e] = c / dens[0]
    return TruncElem(ctx, level, coeffs)
