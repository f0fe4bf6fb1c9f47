"""Additive 0-cycles with modulus and their class maps.

A generator is (f(t), b_1..b_(n-1)) with f(0) a unit of F and the b's
nonzero.  Its Milnor class is the relative symbol
{f(0)^(-1) f(t) mod t^(m+1), b_1..b_(n-1)}, which relmilnor.normal_form
reads off the log derivative of the unit u = f(0)^(-1) f(t); its de
Rham-Witt image is phi(gamma_inv(u), b's), which peels u into Witt
coordinates with no F_m division and takes their ghost map.  The two
routes share no step, and the invertible diagonal c_i = -(1/i) omega_i
links them: for u = gamma(a), -t u'/u = sum_j ghost(a)_j t^j.  Both
images live in the one tuple shape forms.FormTuple: the class itself, a
CanonRelForm of canonical components c_i, on the Milnor side, and ghost
components omega_i on the de Rham-Witt side.

Parametrized curves (g_0..g_n) over F(u) supply boundaries: faces are cut
at the rational zeros and poles of the cube coordinates g_1..g_n, with
multiplicities ord_c(g_i), and the class of a boundary vanishes.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (FaceDegenerate, NonRationalBoundary, NotAdmissible, ShapeError,
                     ZeroEntry)
from .forms import CanonRelForm
from .milnorfield import Valuation, rational_support
from .relmilnor import RelSymbol, normal_form
from .scalars import FieldElem, JsonText, as_sum, fraction_text, parse_fraction
from .trunc import TruncElem
from .witt import gamma_inv
from .drw import DRWForm, phi


class CycleGen(JsonText):
    """A scaled 0-cycle generator (f(t), b_1..b_(n-1)). Immutable."""

    __slots__ = ("ctx", "f", "bs", "coef")

    def __init__(self, f, bs, coef=1):
        f, bs = tuple(f), tuple(bs)
        if not f:
            raise ShapeError("f needs at least the constant coefficient")
        ctx = f[0].ctx
        for c in f + bs:
            ctx.check(c.ctx)
        self.ctx = ctx
        self.f = f
        self.bs = bs
        self.coef = Fraction(coef)

    @property
    def degree(self):
        """The cycle-group degree n; the generator has n-1 cube coordinates."""
        return len(self.bs) + 1

    def is_admissible(self):
        return not self.f[0].is_zero() and all(not b.is_zero() for b in self.bs)

    def unit(self, m: int) -> TruncElem:
        """f(0)^(-1) f(t) mod t^(m+1), the principal unit the classes see."""
        if not self.is_admissible():
            raise NotAdmissible("f(0) = 0 or a face coordinate is 0")
        f = self.f[:m + 1] + (self.ctx.zero,) * (m + 1 - len(self.f))
        return TruncElem(self.ctx, m, f).scale(self.f[0].inv())

    def __repr__(self):
        fstr = " + ".join("(%s)t^%d" % (c, i) for i, c in enumerate(self.f)
                          if not c.is_zero())
        return "%s*[(%s; %s)]" % (self.coef, fstr or "0",
                                  ", ".join(str(b) for b in self.bs))

    def json_shape(self):
        return {"f": self.f, "bs": self.bs, "coef": fraction_text(self.coef)}

    @classmethod
    def from_json(cls, ctx, data):
        return cls([FieldElem.from_json(ctx, c) for c in data["f"]],
                   [FieldElem.from_json(ctx, b) for b in data["bs"]],
                   parse_fraction(data["coef"]))


def cyc_milnor(zs, m: int) -> CanonRelForm:
    """The relative Milnor class of a generator sum at level m."""
    zs = as_sum(zs, CycleGen, "cycle")
    syms = []
    for z in zs:
        entries = [z.unit(m)] + [TruncElem.constant(b, m) for b in z.bs]
        syms.append(RelSymbol(entries, z.coef))
    return normal_form(syms)


def cycle_to_drw(zs, m: int) -> DRWForm:
    """The de Rham-Witt form of a generator sum, the sum of
    coef * phi(gamma_inv(unit), bs) over its generators."""
    zs = as_sum(zs, CycleGen, "cycle")
    n = zs[0].degree
    ctx = zs[0].ctx
    total = DRWForm.zero(ctx, n - 1, m)
    for z in zs:
        total = total + phi(gamma_inv(z.unit(m)), z.bs).scale(z.coef)
    return total


def drw_to_milnor_diagonal(omega: DRWForm) -> CanonRelForm:
    """The invertible diagonal c_i = -(1/i) omega_i between ghost and
    canonical coordinates."""
    comps = [w.scale(Fraction(-1, i)) for i, w in enumerate(omega.comps, start=1)]
    return CanonRelForm(omega.ctx, omega.degree, omega.level, comps)


def milnor_to_drw_diagonal(xi: CanonRelForm) -> DRWForm:
    """Inverse of the diagonal: omega_i = -i * c_i."""
    comps = [w.scale(-i) for i, w in enumerate(xi.comps, start=1)]
    return DRWForm(xi.ctx, xi.degree, xi.level, comps)


def tower_compat(zs, m_big: int, m_small: int) -> bool:
    """Whether restriction of the level-m_big class gives the level-m_small
    class; true for every admissible sum."""
    if m_small > m_big:
        raise ShapeError("levels out of order")
    return (cyc_milnor(zs, m_big).restrict(m_small)
            == cyc_milnor(zs, m_small))


class ParamCurve:
    """A parametrized curve u -> (g_0(u); g_1(u)..g_n(u)) over F(u); g_0 is
    the t-coordinate, the rest are cube coordinates. Immutable."""

    __slots__ = ("ctx", "upos", "gs")

    def __init__(self, ctx, upos, gs):
        gs = tuple(gs)
        if len(gs) < 2:
            raise ShapeError("need g_0 and at least one cube coordinate")
        for g in gs:
            ctx.check(g.ctx)
            if g.is_zero():
                raise ZeroEntry("coordinates must be nonzero functions")
        self.ctx = ctx
        self.upos = upos
        self.gs = gs

    @property
    def degree(self):
        return len(self.gs) - 1

    def __repr__(self):
        return "Curve(%s)" % "; ".join(str(g) for g in self.gs)


def boundary(curve: ParamCurve):
    """The boundary sum_(i>=1) (-1)^i (del_i^inf - del_i^0) as a list of
    CycleGen, cutting the curve at the rational zeros and poles of each
    cube coordinate with multiplicity ord_c(g_i)."""
    ctx, upos, n = curve.ctx, curve.upos, curve.degree
    vals, nonrational = rational_support(ctx, curve.gs[1:], upos)
    if nonrational:
        raise NonRationalBoundary("cube coordinates vanish outside rational "
                                  "points: %s" % nonrational)
    out = []
    one = ctx.drop(upos).one
    for v in vals:
        data = [v.ord_residue(g) for g in curve.gs]
        hot = [i for i in range(1, n + 1) if data[i][0] != 0]
        # points escaping to t = infinity lie outside A^1: no face there
        if data[0][0] < 0:
            continue
        if data[0][0] > 0:
            raise NotAdmissible("face point meets the divisor t = 0 at %s" % v)
        if len(hot) > 1:
            raise FaceDegenerate("two cube coordinates degenerate at %s" % v)
        i = hot[0]
        ord_i = data[i][0]
        # a cube coordinate equal to 1 puts the point outside the cube
        if any(data[j][1] == one for j in range(1, n + 1) if j != i):
            continue
        f0 = data[0][1]
        bs = [data[j][1] for j in range(1, n + 1) if j != i]
        f = [f0.ctx.one, -f0.inv()]
        # del_i^0 carries +ord, del_i^inf carries -ord; total sign
        # (-1)^i (del^inf - del^0) = (-1)^(i+1) * ord on the 0-side
        coef = (-1) ** (i + 1) * ord_i
        out.append(CycleGen(f, bs, coef))
    return out


def modulus_check_curve(curve: ParamCurve, m: int) -> bool:
    """The modulus inequality at every zero of the t-coordinate (closed
    points of any degree, infinity included):
    sum_i ord_c(g_i - 1) >= (m+1) * ord_c(g_0)."""
    ctx, upos = curve.ctx, curve.upos
    g0 = curve.gs[0]
    diffs = [g - ctx.one for g in curve.gs[1:]]
    if any(d.is_zero() for d in diffs):
        return True  # some g_i = 1 identically: ord infinite, holds
    vals = [Valuation(ctx, upos, fac) for fac in ctx.u_factors(g0.num, upos)]
    vals.append(Valuation.infinity(ctx, upos))
    for v in vals:
        d0 = v.ord(g0)
        if d0 > 0 and sum(v.ord(d) for d in diffs) < (m + 1) * d0:
            return False
    return True


def verify_boundary_vanishing(curve: ParamCurve, m: int):
    """Check that the Milnor class of the boundary vanishes at level m.
    Returns (ok, evidence); requires the modulus inequality."""
    if not modulus_check_curve(curve, m):
        return False, {"modulus": False}
    gens = boundary(curve)
    if not gens:
        return True, {"modulus": True, "boundary": "empty"}
    cls = cyc_milnor(gens, m)
    return cls.is_zero(), {"modulus": True,
                           "boundary_terms": len(gens),
                           "class_zero": cls.is_zero()}
