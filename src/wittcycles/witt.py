"""Big Witt vectors W_m(F) in characteristic zero.

Coordinates comps = (a_1..a_m), a forms.LevelTuple, with the ghost map
g_j = sum_(d|j) d * a_d^(j/d), which is a ring isomorphism onto
componentwise tuples over Q.  The group isomorphism gamma onto principal
units of F_m uses the minus sign, gamma(a) = prod_i (1 - a_i t^i).  Ring
operations go through ghost coordinates, which are plain tuples
(g_1..g_m) of field elements; unghost is the triangular solve
a_j = (g_j - lower terms)/j, valid only over Q.  gamma_inv mirrors
gamma: it divides the unit by its factors (1 - a_i t^i) in place, one i
at a time, reading a_i off the lowest coefficient left.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadConstantTerm, ShapeError
from .forms import LevelTuple
from .scalars import FieldElem
from .trunc import TruncElem


def _divisors(j):
    return [d for d in range(1, j + 1) if j % d == 0]


class WittVector(LevelTuple):
    """An element of W_m(F) as coordinates comps = (a_1..a_m); sums,
    negatives and products go through the ghost map. Immutable."""

    __slots__ = ()
    json_key = "coords"

    def __add__(self, other):
        self._check(other)
        return unghost(tuple(a + b for a, b in zip(ghost(self), ghost(other))))

    def __neg__(self):
        return unghost(tuple(-a for a in ghost(self)))

    def __mul__(self, other):
        self._check(other)
        return unghost(tuple(a * b for a, b in zip(ghost(self), ghost(other))))

    def __repr__(self):
        return "W(" + ", ".join(str(a) for a in self.comps) + ")"


def ghost(a: WittVector) -> tuple:
    """The tuple (g_1..g_m) with g_j = sum over divisors d of j of
    d * a_d^(j/d)."""
    powers = list(a.comps)
    return tuple(sum(_lower_terms(a.comps, powers, j), j * a.comps[j - 1])
                 for j in range(1, a.level + 1))


def unghost(g) -> WittVector:
    """Invert the ghost map on a tuple (g_1..g_m) by forward substitution;
    divides by j, so this is a characteristic-zero-only path."""
    zero = g[0].ctx.zero
    coords, powers = [], []
    for j in range(1, len(g) + 1):
        coords.append((g[j - 1] - sum(_lower_terms(coords, powers, j), zero))
                      .scale(Fraction(1, j)))
        powers.append(coords[-1])
    return WittVector(zero.ctx, len(g), coords)


def _lower_terms(coords, powers, j):
    """The terms d * a_d^(j/d) of g_j over the proper divisors d of j with
    a_d = coords[d - 1] nonzero.  powers[d - 1] holds a_d^(j/d - 1), left
    by the last multiple of d, and moves on to a_d^(j/d) by one product
    with a_d."""
    for d in _divisors(j)[:-1]:
        a = coords[d - 1]
        if a:
            powers[d - 1] = powers[d - 1] * a
            yield d * powers[d - 1]


def gamma(a: WittVector) -> TruncElem:
    """The principal unit prod_i (1 - a_i t^i) mod t^(m+1): each factor
    with a_i nonzero updates the coefficients in place, c_k -= a_i c_(k-i)
    for k from m down to i."""
    m = a.level
    c = [a.ctx.one] + [a.ctx.zero] * m
    for i, ai in enumerate(a.comps, start=1):
        if ai:
            for k in range(m, i - 1, -1):
                if c[k - i]:
                    c[k] = c[k] - ai * c[k - i]
    return TruncElem(a.ctx, m, c)


def gamma_inv(u: TruncElem) -> WittVector:
    """Inverse of gamma, the mirror of its update: for i = 1..m, a_i is
    -c_i; a nonzero a_i divides the coefficients by (1 - a_i t^i) in
    place, c_i = 0 and c_k += a_i c_(k-i) for k from i + 1 up to m."""
    if not u.is_principal():
        raise BadConstantTerm("gamma_inv needs constant term 1")
    m = u.level
    c = list(u.comps)
    coords = []
    for i in range(1, m + 1):
        ai = -c[i]
        coords.append(ai)
        if ai:
            c[i] = u.ctx.zero
            for k in range(i + 1, m + 1):
                if c[k - i]:
                    c[k] = c[k] + ai * c[k - i]
    return WittVector(u.ctx, m, coords)


def teichmuller(a: FieldElem, level: int) -> WittVector:
    return WittVector(a.ctx, level, (a,) + (a.ctx.zero,) * (level - 1))


def verschiebung(s: int, a: WittVector, level: int) -> WittVector:
    """V_s composed with restriction to the given level; on coordinates,
    V_s(a)_(s*i) = a_i."""
    if s < 1:
        raise ShapeError("s must be >= 1")
    if a.level < level // s:
        raise ShapeError("input level %d too small for V_%d at level %d"
                         % (a.level, s, level))
    coords = [a.ctx.zero] * level
    for i in range(1, level // s + 1):
        coords[s * i - 1] = a.comps[i - 1]
    return WittVector(a.ctx, level, coords)


def frobenius(s: int, a: WittVector) -> WittVector:
    """F_s: on ghost components, (F_s a)_j = g_(s*j)."""
    if s < 1:
        raise ShapeError("s must be >= 1")
    level = a.level // s
    if level < 1:
        raise ShapeError("F_%d empties a level-%d vector" % (s, a.level))
    g = ghost(a)
    return unghost(tuple(g[s * j - 1] for j in range(1, level + 1)))


def witt_decompose(a: WittVector):
    """The unique presentation a = sum_i V_i([a_i]) as (i, a_i) pairs with
    a_i nonzero; the coordinates are exactly this presentation."""
    return [(i, ai) for i, ai in enumerate(a.comps, start=1) if not ai.is_zero()]
