"""Relative Milnor K-theory of F_m = F[t]/(t^(m+1)) in canonical coordinates.

A class in degree n is its unique representative in t F_m (x)
Omega^(n-1)_F: a forms.CanonRelForm of form degree n - 1, whose
components comps = (c_1..c_m) are the coefficients of t^1..t^m and whose
JSON is {"degree": n, "canon": ...}.  The normal form of a symbol
{u_1..u_n} with a principal entry u (one lying in 1 + t F_m) is

    reduce_mod_exact( log(u) dlog(u_2) ^ ... ^ dlog(u_n) )

with the sign of moving u to the front.  The map is well defined because
log(u)dlog(v) + log(v)dlog(u) = d(log(u)log(v)) is exact, and it is an
isomorphism with inverse a (x) dlog(b_1)^..^dlog(b_(n-1)) |->
{exp(a), b_1..b_(n-1)} on decomposables.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NoPrincipalEntry, NotAUnit
from .forms import CanonRelForm, dlog_wedge, reduce_mod_exact
from .scalars import JsonText, fraction_text, parse_fraction
from .trunc import TruncElem, embed_form, exp_t, log_t, trunc_dlog


class RelSymbol(JsonText):
    """A scaled Milnor symbol {u_1..u_n} of units of F_m. Immutable."""

    __slots__ = ("ctx", "level", "entries", "coef")

    def __init__(self, entries, coef=1):
        entries = tuple(entries)
        if not entries:
            raise ValueError("a symbol needs at least one entry")
        ctx = entries[0].ctx
        level = entries[0].level
        for u in entries:
            ctx.check(u.ctx)
            if u.level != level:
                raise ValueError("mixed levels in one symbol")
            if not u.is_unit():
                raise NotAUnit("symbol entry with zero constant term")
        self.ctx = ctx
        self.level = level
        self.entries = entries
        self.coef = Fraction(coef)

    @property
    def degree(self):
        return len(self.entries)

    def __repr__(self):
        return "%s*{%s}" % (self.coef, ", ".join(str(u) for u in self.entries))

    def json_shape(self):
        return {"coef": fraction_text(self.coef), "entries": self.entries}

    @classmethod
    def from_json(cls, ctx, data):
        return cls([TruncElem.from_json(ctx, u) for u in data["entries"]],
                   parse_fraction(data["coef"]))


def symbol_form(sym: RelSymbol):
    """The relative (n-1)-form log(u) dlog(rest) of one symbol, with the
    sign of moving the first principal entry to the front."""
    pos = next((i for i, u in enumerate(sym.entries) if u.is_principal()), None)
    if pos is None:
        raise NoPrincipalEntry("no entry in 1 + t F_m")
    sign = (-1) ** pos
    principal = sym.entries[pos]
    rest = sym.entries[:pos] + sym.entries[pos + 1:]
    form = embed_form(log_t(principal))
    for v in rest:
        form = form.wedge(trunc_dlog(v))
    return form.scale(sym.coef * sign)


def normal_form(terms) -> CanonRelForm:
    """Canonical coordinates of a formal sum of relative symbols."""
    if isinstance(terms, RelSymbol):
        terms = [terms]
    terms = list(terms)
    if not terms:
        raise ValueError("empty symbol sum has no context")
    n, m, ctx = terms[0].degree, terms[0].level, terms[0].ctx
    total = CanonRelForm.zero(ctx, n - 1, m)
    for sym in terms:
        if sym.degree != n or sym.level != m:
            raise ValueError("mixed shapes in one symbol sum")
        total = total + reduce_mod_exact(symbol_form(sym))
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
