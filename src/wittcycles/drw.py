"""The big de Rham-Witt complex W_m Omega^n_F in characteristic zero.

In characteristic zero the ghost map extends to an isomorphism onto m
plain copies of Omega^n_F, and that tuple is the sole internal
representation here.  A DRWForm is the same tuple of forms as a canonical
relative form (both are forms.FormTuple, with one shared sum, scaling,
restriction and JSON code), told apart by type.  Product and sum are
componentwise (product is the wedge); the twist sits in the translated
operator formulas:

    (d alpha)_j   = (1/j) d(omega_j)
    (V_s alpha)_j = s * omega_(j/s)  when s | j, else 0
    (F_s alpha)_j = omega_(s*j)

These make degree 0 match the Witt-vector ghost formulas and satisfy the
restricted Witt-complex relations (F_s d V_s = d, projection formula,
Leibniz), which is how they are pinned down by the test suite.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ZeroArgument
from .forms import DiffForm, FormTuple, dlog, dlog_wedge
from .scalars import FieldElem
from .witt import WittVector, ghost


class DRWForm(FormTuple):
    """An n-form of level m as the ghost tuple (omega_1..omega_m); the
    product is the componentwise wedge. Immutable."""

    __slots__ = ()
    json_key = "ghost"

    def __mul__(self, other):
        self._check(other)
        return DRWForm(self.ctx, self.degree + other.degree, self.level,
                       [a.wedge(b) for a, b in zip(self.comps, other.comps)])

    def __repr__(self):
        return "DRW(" + "; ".join(str(w) for w in self.comps) + ")"


def drw_d(a: DRWForm) -> DRWForm:
    return DRWForm(a.ctx, a.degree + 1, a.level,
                   [w.d().scale(Fraction(1, j))
                    for j, w in enumerate(a.comps, start=1)])


def drw_V(s: int, a: DRWForm, level: int) -> DRWForm:
    if s < 1:
        raise ValueError("s must be >= 1")
    if a.level < level // s:
        raise ValueError("input level %d too small for V_%d at level %d"
                         % (a.level, s, level))
    zero = DiffForm.zero(a.ctx, a.degree)
    comps = [a.comps[j // s - 1].scale(s) if j % s == 0 else zero
             for j in range(1, level + 1)]
    return DRWForm(a.ctx, a.degree, level, comps)


def drw_F(s: int, a: DRWForm) -> DRWForm:
    if s < 1:
        raise ValueError("s must be >= 1")
    level = a.level // s
    if level < 1:
        raise ValueError("F_%d empties a level-%d form" % (s, a.level))
    return DRWForm(a.ctx, a.degree, level,
                   [a.comps[s * j - 1] for j in range(1, level + 1)])


def from_witt(a: WittVector) -> DRWForm:
    """A Witt vector as a degree-0 form (its ghost tuple)."""
    return DRWForm(a.ctx, 0, a.level,
                   [DiffForm.scalar(g) for g in ghost(a)])


def teich_dlog(b: FieldElem, level: int) -> DRWForm:
    """dlog of the Teichmuller lift: the constant ghost tuple (dlog b)_j."""
    if b.is_zero():
        raise ZeroArgument("teich_dlog(0)")
    w = dlog(b)
    return DRWForm(b.ctx, 1, level, (w,) * level)


def phi(a: WittVector, bs) -> DRWForm:
    """a * dlog[b_1] ^ ... ^ dlog[b_k] directly in ghost coordinates."""
    bs = list(bs)
    if any(b.is_zero() for b in bs):
        raise ZeroArgument("phi with a zero unit entry")
    w = dlog_wedge(a.ctx, bs)
    return DRWForm(w.ctx, w.degree, a.level, [w.scale(g) for g in ghost(a)])

