"""Kahler differential forms over F and over the truncated ring F_m.

A differential n-form is a sparse association from strictly increasing
index subsets S of the variable list (|S| = n) to field coefficients of
dx_S.  Forms over F_m = F[t]/(t^(m+1)) are kept in the split shape

    sum_(i=0..m) t^i (x) omega_i  +  sum_(i<m) t^i dt ^ eta_i ,

with t^(m+1) = 0 and t^m dt = 0 enforced by the index ranges; omega_i is
indexed like the coefficients of a ring element of F_m.  dt is kept
leftmost in dt-terms; wedging a p-form past dt from the left contributes
the sign (-1)^p.  Ring elements and both kinds of parts multiply by one
truncated product, `series_product`.

Each term of the paper's pro-systems is a tuple over one context at a
level m that restricts to lower levels.  `LevelTuple` is that shape,
with components `comps`: the base of F_m elements, Witt vectors and
`FormTuple`, the tuples of forms.  These are the tuples (w_1..w_m) of
n-forms behind canonical relative forms and de Rham-Witt forms, and the
forms over F_m (`FormOnTrunc`), whose two kinds of parts interleave.
`dlog_sum` writes dlog y_1 ^ .. ^ dlog y_n once, for every caller.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import prod

from .errors import NotRelative, ShapeError, ZeroArgument
from .scalars import FieldElem, JsonText


def series_product(xs, ys, n, zero):
    """The first n coefficients of (sum_i xs_i t^i)(sum_j ys_j t^j), with
    products a * b of ring elements or wedges of forms; zero coefficients
    are skipped, and each coefficient starts from its first product."""
    out = [zero] * n
    for i, a in enumerate(xs[:n]):
        if not a:
            continue
        for j, b in enumerate(ys[:n - i]):
            if b:
                k = i + j
                out[k] = a * b if out[k] is zero else out[k] + a * b
    return out


def _merge_sign(s, t):
    """Sign of sorting the concatenation s + t of two strictly increasing
    index tuples; None when they intersect."""
    inversions = 0
    for a in s:
        for b in t:
            if a == b:
                return None, None
            if a > b:
                inversions += 1
    merged = tuple(sorted(s + t))
    return merged, (-1) ** inversions


class DiffForm(JsonText):
    """A differential form of fixed degree over Q(x1..xr). Immutable.

    Degree -1 is allowed and forced to be the zero form; it appears as the
    dt-part of degree-0 forms over F_m.
    """

    __slots__ = ("ctx", "degree", "coeffs")

    def __init__(self, ctx, degree, coeffs=None):
        self.ctx = ctx
        self.degree = degree
        clean = {}
        if coeffs and degree >= 0:
            for subset, value in coeffs.items():
                if value.is_zero():
                    continue
                subset = tuple(subset)
                if len(subset) != degree or list(subset) != sorted(set(subset)):
                    raise ShapeError("bad index subset %r for degree %d" % (subset, degree))
                if subset and (subset[0] < 0 or subset[-1] >= ctx.r):
                    raise ShapeError("index subset %r out of range" % (subset,))
                clean[subset] = value
        self.coeffs = clean

    @classmethod
    def zero(cls, ctx, degree):
        return cls(ctx, degree)

    @classmethod
    def scalar(cls, value: FieldElem):
        """A 0-form from a field element."""
        return cls(value.ctx, 0, {(): value})

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, DiffForm) and self.ctx == other.ctx
                and self.degree == other.degree and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ctx, self.degree, frozenset(self.coeffs.items())))

    def __add__(self, other):
        self._check(other)
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        coeffs = dict(self.coeffs)
        for subset, value in other.coeffs.items():
            coeffs[subset] = coeffs.get(subset, self.ctx.zero) + value
        return DiffForm(self.ctx, self.degree, coeffs)

    def __neg__(self):
        return DiffForm(self.ctx, self.degree,
                        {s: -v for s, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """self * c for an int, Fraction or field element c; rational c
        scales each coefficient by integer gcds alone."""
        return DiffForm(self.ctx, self.degree,
                        {s: v * c for s, v in self.coeffs.items()})

    def _check(self, other):
        self.ctx.check(other.ctx)
        if self.degree != other.degree:
            raise ShapeError("degree mismatch %d vs %d" % (self.degree, other.degree))

    def wedge(self, other):
        self.ctx.check(other.ctx)
        degree = self.degree + other.degree
        if self.degree < 0 or other.degree < 0 or degree > self.ctx.r:
            return DiffForm(self.ctx, max(degree, -1))
        coeffs = {}
        for s, a in self.coeffs.items():
            for t, b in other.coeffs.items():
                merged, sign = _merge_sign(s, t)
                if merged is None:
                    continue
                term = a * b if sign == 1 else -(a * b)
                coeffs[merged] = coeffs.get(merged, self.ctx.zero) + term
        return DiffForm(self.ctx, degree, coeffs)

    __mul__ = wedge

    def d(self):
        """Exterior differential."""
        coeffs = {}
        for subset, value in self.coeffs.items():
            for i in range(self.ctx.r):
                merged, sign = _merge_sign((i,), subset)
                if merged is None:
                    continue
                dv = value.diff(i)
                if dv.is_zero():
                    continue
                term = dv if sign == 1 else -dv
                coeffs[merged] = coeffs.get(merged, self.ctx.zero) + term
        return DiffForm(self.ctx, self.degree + 1, coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for subset in sorted(self.coeffs):
            basis = "^".join("d%s" % self.ctx.names[i] for i in subset)
            coef = "(%s)" % self.coeffs[subset]
            parts.append(coef + ("*" + basis if basis else ""))
        return " + ".join(parts)

    def json_shape(self):
        return [[list(s), v] for s, v in sorted(self.coeffs.items())]

    @classmethod
    def from_json(cls, ctx, degree, data):
        coeffs = {tuple(s): FieldElem.from_json(ctx, v) for s, v in data}
        return cls(ctx, degree, coeffs)


def dlog(u: FieldElem) -> DiffForm:
    """du/u as a 1-form, the sum of e * db/b over u.log_parts(); rejects
    u = 0.  dlog(c) = 0 for rational c.  Each db/b cancels only what b
    and its derivative share, so the quotient du/u, whose factors cancel
    across numerator and denominator, is never formed."""
    if u.is_zero():
        raise ZeroArgument("dlog(0)")
    ctx = u.ctx
    coeffs = {}
    for b, e in u.log_parts():
        for i in range(ctx.r):
            db = b.diff(i)
            if not db.is_zero():
                coeffs[(i,)] = coeffs.get((i,), ctx.zero) + (db if e > 0 else -db) / b
    return DiffForm(ctx, 1, coeffs)


def _sign(ks):
    """The sign of the permutation that sorts the distinct ks."""
    return (-1) ** sum(a > b for i, a in enumerate(ks) for b in ks[i + 1:])


def dlog_sum(ctx, terms, n):
    """Yields (I, num, den) for each nonzero dx_I coefficient num / den of
    the sum of coef * dlog(y_1) ^ .. ^ dlog(y_n) over the (coef, (y_1..y_n))
    in terms, with no gcd.  Over the log parts b of the y's the form is
    sum_K m_K dlog b_K: den is the product of the b_j in the K with
    m_K det(d_I b_K) != 0, and num the sum over those K of m_K det(d_I b_K)
    times the parts of den outside K."""
    if n > ctx.r:
        return
    basis, m = {}, {}
    for coef, values in terms:
        for pick in product(*([(basis.setdefault(b, len(basis)), e) for b, e in y.log_parts()]
                              for y in values)):
            ks = [k for k, _ in pick]
            if len(set(ks)) == n:
                K = tuple(sorted(ks))
                m[K] = m.get(K, 0) + coef * prod(e for _, e in pick) * _sign(ks)
    bs, m = list(basis), {K: c for K, c in m.items() if c}
    grads = {k: [bs[k].diff(i) for i in range(ctx.r)] for k in set().union(*m)}
    for idx in combinations(range(ctx.r), n):
        dets = {}
        for K, c in m.items():
            det = sum((prod((grads[k][i] for k, i in zip(K, sigma)), start=c * _sign(sigma))
                       for sigma in permutations(idx)), start=ctx.zero)
            if det:
                dets[K] = det
        used = sorted(set().union(*dets))
        num = sum((prod((bs[j] for j in used if j not in K), start=w) for K, w in dets.items()),
                  start=ctx.zero)
        if num:
            yield idx, num, prod((bs[j] for j in used[1:]), start=bs[used[0]]) if used else ctx.one


def dlog_wedge(ctx, values) -> DiffForm:
    """dlog(v1) ^ ... ^ dlog(vk); the empty product is the 0-form 1.  From
    k = 2 on, each coefficient is one quotient num / den of dlog_sum."""
    if not all(ctx.check(v.ctx) or v for v in values):
        raise ZeroArgument("dlog(0)")
    if len(values) < 2:
        return dlog(values[0]) if values else DiffForm.scalar(ctx.one)
    return DiffForm(ctx, len(values), {I: num / den for I, num, den
                                       in dlog_sum(ctx, [(1, values)], len(values))})


class LevelTuple(JsonText):
    """A term of a pro-system at level m >= 1: a tuple of level * width +
    extra components over one context (width 1 and extra 0 by default).
    The base of F_m elements (extra 1), Witt vectors and tuples of forms;
    equality, hashing, the level check, componentwise sums and negatives,
    restriction and the JSON list live here.  Results keep the subclass,
    and tuples of different subclasses never compare equal.  Immutable."""

    __slots__ = ("ctx", "level", "comps")
    width, extra = 1, 0
    json_key = "comps"

    def __init__(self, ctx, level, comps):
        if level < 1:
            raise ShapeError("level must be >= 1")
        comps, size = tuple(comps), level * self.width + self.extra
        if len(comps) != size:
            raise ShapeError("need exactly %d components" % size)
        self.ctx = ctx
        self.level = level
        self.comps = comps

    @classmethod
    def zero(cls, ctx, level):
        return cls(ctx, level, (ctx.zero,) * (level * cls.width + cls.extra))

    def _like(self, comps, level=None):
        """A tuple of self's type and shape with the given components."""
        return type(self)(self.ctx, self.level if level is None else level, comps)

    def is_zero(self):
        return all(c.is_zero() for c in self.comps)

    def __eq__(self, other):
        return (type(other) is type(self) and self.ctx == other.ctx
                and self.level == other.level and self.comps == other.comps)

    def __hash__(self):
        return hash((self.ctx, self.level, self.comps))

    def _check(self, other):
        """other, once its type, context and level are self's."""
        if type(other) is not type(self):
            raise TypeError("cannot combine %s with %s"
                            % (type(self).__name__, type(other).__name__))
        self.ctx.check(other.ctx)
        if self.level != other.level:
            raise ShapeError("level mismatch %d vs %d" % (self.level, other.level))
        return other

    def __add__(self, other):
        other = self._check(other)
        return self._like([a + b for a, b in zip(self.comps, other.comps)])

    def __neg__(self):
        return self._like([-c for c in self.comps])

    def __sub__(self, other):
        return self + (-other)

    def restrict(self, level):
        if level > self.level:
            raise ShapeError("cannot restrict upward")
        return self._like(self.comps[:level * self.width + self.extra], level)

    def json_shape(self):
        return {"level": self.level, self.json_key: self.comps}

    @classmethod
    def from_json(cls, ctx, data):
        return cls(ctx, data["level"],
                   [FieldElem.from_json(ctx, c) for c in data[cls.json_key]])


class FormTuple(LevelTuple):
    """A tuple of forms over F whose component i has degree
    degree - i % width: the tuples (w_1..w_m) of n-forms behind canonical
    relative forms and de Rham-Witt ghost tuples, and (width 2) the forms
    over F_m.  The degree check, zero, scaling and the rebuild of results
    live here."""

    __slots__ = ("degree",)

    def __init__(self, ctx, degree, level, comps):
        super().__init__(ctx, level, comps)
        if any(w.degree != degree - i % self.width for i, w in enumerate(self.comps)):
            raise ShapeError("component degree mismatch")
        self.degree = degree

    def _like(self, comps, level=None):
        return type(self)(self.ctx, self.degree,
                          self.level if level is None else level, comps)

    @classmethod
    def zero(cls, ctx, degree, level):
        return cls(ctx, degree, level,
                   [DiffForm.zero(ctx, degree - i % cls.width)
                    for i in range(level * cls.width + cls.extra)])

    def scale(self, c):
        return self._like([w.scale(c) for w in self.comps])

    def __repr__(self):
        return "(" + ", ".join(str(w) for w in self.comps) + ")"

    def json_shape(self):
        return {"degree": self.degree, **super().json_shape()}

    @classmethod
    def from_json(cls, ctx, data):
        return cls(ctx, data["degree"], data["level"],
                   [DiffForm.from_json(ctx, data["degree"], w) for w in data[cls.json_key]])


class FormOnTrunc(FormTuple):
    """A k-form over F_m in the split shape: tparts[i] is the coefficient
    of t^i (x) -, i = 0..m, and dt[i] that of t^i dt ^ -, i < m.  The
    components interleave them, comps = (omega_0, eta_0, omega_1, ...,
    eta_(m-1), omega_m), so that restriction keeps a prefix; `of` builds
    one from its parts.  Immutable."""

    __slots__ = ()
    width, extra = 2, 1

    @classmethod
    def of(cls, ctx, degree, level, tparts=None, dt=None):
        """The form with the given t^i parts and t^i dt parts; an omitted
        kind of part is zero."""
        comps = [None] * (2 * level + 1)  # a wrong part count fails to fill it
        comps[0::2] = [DiffForm.zero(ctx, degree)] * (level + 1) if tparts is None else tparts
        comps[1::2] = [DiffForm.zero(ctx, degree - 1)] * level if dt is None else dt
        return cls(ctx, degree, level, comps)

    tparts = property(lambda self: self.comps[0::2])
    dt = property(lambda self: self.comps[1::2])

    def is_relative(self):
        return self.comps[0].is_zero()

    def wedge(self, other):
        """(omega + dt ^ eta) ^ (omega' + dt ^ eta') with
        omega ^ dt ^ eta' = (-1)^p dt ^ omega ^ eta' for a p-form omega."""
        other = self._check(other)
        m = self.level
        degree = self.degree + other.degree
        zero_k1 = DiffForm.zero(self.ctx, degree - 1)
        tparts = series_product(self.tparts, other.tparts, m + 1,
                                DiffForm.zero(self.ctx, degree))
        left = series_product(self.tparts, other.dt, m, zero_k1)
        if self.degree % 2:
            left = [-w for w in left]
        right = series_product(self.dt, other.tparts, m, zero_k1)
        return FormOnTrunc.of(self.ctx, degree, m, tparts,
                              [a + b for a, b in zip(left, right)])

    def d(self):
        """Differential with d(t^i) = i t^(i-1) dt and t^m dt = 0."""
        parts = self.tparts
        dt = [-eta.d() + parts[i + 1].scale(i + 1) for i, eta in enumerate(self.dt)]
        return FormOnTrunc.of(self.ctx, self.degree + 1, self.level,
                              [w.d() for w in parts], dt)

    def __repr__(self):
        parts = []
        for i, w in enumerate(self.tparts):
            if not w.is_zero():
                parts.append("t^%d(x)[%s]" % (i, w) if i else "[%s]" % w)
        for i, w in enumerate(self.dt):
            if not w.is_zero():
                parts.append("t^%d dt^[%s]" % (i, w))
        return " + ".join(parts) if parts else "0"

    def json_shape(self):
        return {"degree": self.degree, "level": self.level,
                "tparts": self.tparts, "dt": self.dt}

    @classmethod
    def from_json(cls, ctx, data):
        n, m = data["degree"], data["level"]
        return cls.of(ctx, n, m,
                      [DiffForm.from_json(ctx, n, w) for w in data["tparts"]],
                      [DiffForm.from_json(ctx, n - 1, w) for w in data["dt"]])


class CanonRelForm(FormTuple):
    """Canonical representative (c_1..c_m) of a relative class in
    t F_m (x) Omega^n_F; it is the class in K_(n+1)(F_m, (t)) itself, and
    its JSON is the class layout {"degree": n + 1, "canon": ...}.
    Immutable."""

    __slots__ = ()

    def embed(self) -> FormOnTrunc:
        """The representative sum_i t^i (x) c_i as a relative form on F_m."""
        return FormOnTrunc.of(self.ctx, self.degree, self.level,
                              (DiffForm.zero(self.ctx, self.degree),) + self.comps)

    def json_shape(self):
        return {"degree": self.degree + 1, "canon": super().json_shape()}

    @classmethod
    def from_json(cls, ctx, data):
        canon = super().from_json(ctx, data["canon"])
        if data["degree"] != canon.degree + 1:
            raise ShapeError("class degree must be the form degree + 1")
        return canon


def reduce_mod_exact(alpha: FormOnTrunc) -> CanonRelForm:
    """Project a relative form onto its canonical representative in
    t F_m (x) Omega^n, killing exactly the exact forms d(Omega~^(n-1)):

        c_i = omega_i - (1/i) d(eta_(i-1)),   i = 1..m.

    Division by i is valid because every coefficient space is a Q-vector
    space (characteristic zero only)."""
    if not alpha.is_relative():
        raise NotRelative("form has a nonzero t^0 part")
    comps = [alpha.tparts[i] - alpha.dt[i - 1].d().scale(Fraction(1, i))
             for i in range(1, alpha.level + 1)]
    return CanonRelForm(alpha.ctx, alpha.degree, alpha.level, comps)
