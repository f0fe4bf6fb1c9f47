"""Relative Milnor K-theory of F_m = F[t]/(t^(m+1)) in canonical coordinates.

A class in degree n is its unique representative in t F_m (x)
Omega^(n-1)_F: a forms.CanonRelForm of form degree n - 1, whose
components comps = (c_1..c_m) are the coefficients of t^1..t^m and whose
JSON is {"degree": n, "canon": ...}.  A symbol {u_1..u_n} with a
principal entry u (in 1 + t F_m) has the class of F = log(u) dlog(rest),
signed by moving u to the front.  The map is well defined, as
log(u)dlog(v) + log(v)dlog(u) = d(log(u)log(v)) is exact, and {exp(a),
b_1..b_(n-1)} inverts it on decomposables a (x) dlog(b_1)^..^dlog(b_(n-1)).

normal_form reads c_i off dF = dlog(u_1)^..^dlog(u_n): FormOnTrunc.d
gives (dF).dt_(i-1) = i omega_i - d(eta_(i-1)), i times the canonical
c_i = omega_i - (1/i) d(eta_(i-1)).  Constant entries have dlogs without
dt part, so that part is the dlog wedge of the moving entries (a nonzero
t-coefficient) wedged with that of the constant ones, signed by moving
the moving entries to the front; with no moving entry the class is 0.
The dlog of the j-th moving entry is alpha_j + dt ^ beta_j, as
trunc.dlog_split writes it.  As each alpha is a 1-form, the dt part of
the wedge of the k moving dlogs is

    sum_j (-1)^(j-1) beta_j alpha_1^..(no alpha_j)..^alpha_k ,

products by forms.series_product.  For one moving entry the product is
empty and the dt part is beta_1: no alpha and no derivative is built.
"""

from __future__ import annotations

from .errors import NoPrincipalEntry, NotAUnit, ShapeError
from .forms import CanonRelForm, DiffForm, dlog_wedge, series_product
from .scalars import ScaledSymbol, as_sum, parse_fraction
from .trunc import TruncElem, dlog_split, exp_t


class RelSymbol(ScaledSymbol):
    """A scaled Milnor symbol {u_1..u_n} of units of F_m. Immutable."""

    __slots__ = ("level",)

    def __init__(self, entries, coef=1):
        entries = tuple(entries)
        if not entries:
            raise ShapeError("a symbol needs at least one entry")
        ctx, level = entries[0].ctx, entries[0].level
        for u in entries:
            ctx.check(u.ctx)
            if u.level != level:
                raise ShapeError("mixed levels in one symbol")
            if not u.is_unit():
                raise NotAUnit("symbol entry with zero constant term")
        super().__init__(ctx, entries, coef)
        self.level = level

    @classmethod
    def from_json(cls, ctx, data):
        return cls([TruncElem.from_json(ctx, u) for u in data["entries"]],
                   parse_fraction(data["coef"]))


def _dlog_wedge_dt(entries):
    """The dt part (eta_0..eta_(m-1)) of dlog(u_1)^..^dlog(u_k) over F_m,
    by the alpha/beta sum above, each entry split once by trunc.dlog_split.
    The alphas lack their t^m part, which no product of dt parts reaches,
    and with k = 1 none is read, so none is built."""
    ctx, m = entries[0].ctx, entries[0].level
    splits = [dlog_split(u, m if len(entries) > 1 else 0) for u in entries]
    total = None
    for j, (_, part) in enumerate(splits):
        for degree, (alpha, _) in enumerate(splits[:j] + splits[j + 1:], 1):
            part = series_product(part, alpha, m, DiffForm.zero(ctx, degree))
        if j % 2:
            part = [-w for w in part]
        total = part if total is None else [a + b for a, b in zip(total, part)]
    return total


def normal_form(terms) -> CanonRelForm:
    """Canonical coordinates of a formal sum of relative symbols."""
    terms = as_sum(terms)
    n, m, ctx = terms[0].degree, terms[0].level, terms[0].ctx
    total = CanonRelForm.zero(ctx, n - 1, m)
    for sym in terms:
        if not any(u.is_principal() for u in sym.entries):
            raise NoPrincipalEntry("no entry in 1 + t F_m")
        moving = [i for i, u in enumerate(sym.entries) if any(u.comps[1:])]
        if not moving:
            continue
        # each moving entry passes the constant entries before it
        coef = sym.coef * (-1) ** sum(i - k for k, i in enumerate(moving))
        dt = _dlog_wedge_dt([sym.entries[i] for i in moving])
        rest = dlog_wedge(ctx, [u.comps[0] for u in sym.entries if not any(u.comps[1:])])
        total = total + CanonRelForm(ctx, n - 1, m, [
            eta.scale(coef / i).wedge(rest) for i, eta in enumerate(dt, 1)])
    return total


def theta(a: TruncElem, bs, coef=1) -> RelSymbol:
    """The symbol {exp(a), b_1..b_(n-1)} attached to a (x) dlog(b) data;
    a must have zero constant term, the b's are units of F."""
    entries = [exp_t(a)]
    for b in bs:
        entries.append(TruncElem.constant(a.ctx.elem(b), a.level))
    return RelSymbol(entries, coef)


def mult_by_absolute(cs, xi: CanonRelForm) -> CanonRelForm:
    """Product with the absolute symbol {c_1..c_k} of units of F: wedge
    every canonical component with dlog(c_1)^..^dlog(c_k)."""
    w = dlog_wedge(xi.ctx, [xi.ctx.elem(c) for c in cs])
    return CanonRelForm(xi.ctx, xi.degree + w.degree, xi.level,
                        [ci.wedge(w) for ci in xi.comps])
