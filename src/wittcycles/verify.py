"""Seeded property-verification suites.

Each suite checks the algebraic contracts of one layer on randomly
generated corpora; reports are deterministic given (seed, trials,
variable list), apart from their times.  A suite returns
{"suite", "seed", "elapsed_s", "ok", "properties"}, with one dict per
property: {"name", "trials", "ok", "counterexample", "elapsed_s"}.

A check is a generator that yields once per completed trial and states
each sub-property as one `_require(ok, name, *witness)` line; `_check`
runs it.  A passing property reports its aggregate name, the number of
completed trials and a null counterexample.  A failing one reports the
failed sub-property's name, the index of the failing trial (completed
trials + 1; retried draws that were skipped do not count) and the repr
of the witness: the single object, or the tuple of several.  Witnesses
are formatted only on failure.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from fractions import Fraction

from . import addchow, drw, milnorfield, relmilnor, trunc, witt
from .errors import DegenerateBranch, FaceDegenerate, ParseError, ZeroEntry
from .forms import CanonRelForm, DiffForm, FormOnTrunc, dlog, reduce_mod_exact
from .scalars import Context
from .trunc import TruncElem, exp_t, log_t, trunc_dlog, embed_form


class Sampler:
    """Deterministic random generators over one context."""

    def __init__(self, ctx, seed):
        self.ctx = ctx
        self.rng = random.Random(seed)

    def fe(self, maxdeg=2):
        """A small random field element (polynomial shape)."""
        ctx, rng = self.ctx, self.rng
        total = ctx.rational(rng.randint(-3, 3))
        for i in range(ctx.r):
            if rng.random() < 0.5:
                total = total + ctx.rational(rng.choice([1, -1, 2])) \
                    * ctx.var(i) ** rng.randint(1, maxdeg)
        return total

    def nonzero(self, maxdeg=2):
        while True:
            v = self.fe(maxdeg)
            if not v.is_zero():
                return v

    def monomial(self, coefs=(1, -1, 2, 3), p_var=0.6):
        """One of coefs, times a random variable with probability p_var."""
        c = self.ctx.rational(self.rng.choice(coefs))
        if self.rng.random() < p_var:
            c = c * self.ctx.var(self.rng.randrange(self.ctx.r))
        return c

    def form(self, n, light=False):
        ctx = self.ctx
        if n < 0 or n > ctx.r:
            return DiffForm.zero(ctx, n)
        coeffs = {}
        for s in itertools.combinations(range(ctx.r), n):
            if self.rng.random() < (0.4 if light else 0.7):
                coeffs[s] = self.monomial() if light else self.fe(maxdeg=1)
        return DiffForm(ctx, n, coeffs)

    def form_on_trunc(self, k, m):
        """A light relative k-form: zero t^0 part, sparse monomial parts."""
        return FormOnTrunc.of(self.ctx, k, m,
                              [DiffForm.zero(self.ctx, k)]
                              + [self.form(k, True) for _ in range(m)],
                              [self.form(k - 1, True) for _ in range(m)])

    def canon(self, n, m):
        return CanonRelForm(self.ctx, n, m, [self.form(n) for _ in range(m)])

    def witt(self, m):
        return witt.WittVector(self.ctx, m, [self.fe(maxdeg=1) for _ in range(m)])

    def sparse_witt(self, m):
        """A Witt vector with mostly-zero monomial coordinates."""
        return witt.WittVector(self.ctx, m, [
            self.monomial((1, -1, 2), 0.5) if self.rng.random() < 0.5 else self.ctx.zero
            for _ in range(m)])

    def nilpotent(self, m):
        return TruncElem(self.ctx, m, [self.ctx.zero]
                         + [self.fe(maxdeg=1) for _ in range(m)])

    def sparse_nilpotent(self, m):
        """A nilpotent with few nonzero coefficients, each one a monomial."""
        coeffs = [self.ctx.zero] * (m + 1)
        for _ in range(self.rng.randint(1, 2)):
            coeffs[self.rng.randint(1, m)] = self.monomial(p_var=0.5)
        return TruncElem(self.ctx, m, coeffs)

    def principal_unit(self, m, light=False):
        if light:
            return TruncElem.one(self.ctx, m) + self.sparse_nilpotent(m)
        return TruncElem(self.ctx, m, [self.ctx.one]
                         + [self.fe(maxdeg=1) for _ in range(m)])

    def trunc_unit(self, m, light=False):
        if light:
            return TruncElem.constant(self.monomial(), m) \
                * self.principal_unit(m, light=True)
        while True:
            u = TruncElem(self.ctx, m, [self.fe(maxdeg=1) for _ in range(m + 1)])
            if u.is_unit():
                return u

    def drw(self, n, m):
        return drw.DRWForm(self.ctx, n, m, [self.form(n) for _ in range(m)])

    def cycle_gen(self, n, m):
        while True:
            f = [self.fe(maxdeg=1) for _ in range(self.rng.randint(1, m + 1))]
            bs = [self.fe(maxdeg=1) for _ in range(n - 1)]
            z = addchow.CycleGen(f, bs, self.rng.randint(-2, 2) or 1)
            if z.is_admissible():
                return z

    def v_index(self, m):
        """The index s of a V_s/F_s pair at level m: 2 or 3, with m // s >= 1."""
        sv = self.rng.choice([2, 3])
        return sv if m // sv >= 1 else 2


class _Failure(Exception):
    """A failed sub-property: its name and its witness objects."""


def _require(ok, name, *witness):
    if not ok:
        raise _Failure(name, witness)


def _check(name):
    """Run a check generator and build its property dict; `name` is the
    aggregate property that a passing run reports."""
    def wrap(trials_of):
        @functools.wraps(trials_of)
        def run(*args, **kwargs):
            t0 = time.perf_counter()
            prop, trials, failure = name, 0, None
            try:
                for _ in trials_of(*args, **kwargs):
                    trials += 1
            except _Failure as exc:
                prop, witness = exc.args
                trials += 1
                failure = repr(witness[0] if len(witness) == 1 else witness)
            return {"name": prop, "trials": trials, "ok": failure is None,
                    "counterexample": failure,
                    "elapsed_s": round(time.perf_counter() - t0, 3)}
        return run
    return wrap


SUITES = {}


def _suite(name, default_trials):
    """Register a suite under `name`.  Its body maps (seed, trials, names)
    to property dicts; `trials` is at least 1, or None for `default_trials`.
    The registered function times it and builds the suite report."""
    def register(props_of):
        @functools.wraps(props_of)
        def run(seed=0, trials=None, names=("x", "y")):
            if trials is None:
                trials = default_trials
            elif trials < 1:
                raise ParseError("trials must be at least 1, got %d" % trials)
            t0 = time.perf_counter()
            props = props_of(seed, trials, names)
            return {"suite": name, "seed": seed,
                    "elapsed_s": round(time.perf_counter() - t0, 3),
                    "ok": all(p["ok"] for p in props), "properties": props}
        SUITES[name] = run
        return run
    return register


# -- witt suite ---------------------------------------------------------

@_check("ghost-gamma-coherence")
def check_ghost_gamma(ctx, seed, trials):
    """gamma homomorphism, ghost ring homomorphism, log-derivative
    identity, unghost of ghost."""
    s = Sampler(ctx, seed)
    for _ in range(trials):
        m = s.rng.randint(1, 8)
        a, b = s.sparse_witt(m), s.sparse_witt(m)
        ga, gb = witt.ghost(a), witt.ghost(b)
        _require(witt.gamma(a + b) == witt.gamma(a) * witt.gamma(b),
                 "gamma-homomorphism", a, b)
        _require(witt.gamma_inv(witt.gamma(a)) == a, "gamma-inverse", a)
        _require(witt.ghost(a + b) == tuple(p + q for p, q in zip(ga, gb)),
                 "ghost-additive", a, b)
        _require(witt.ghost(a * b) == tuple(p * q for p, q in zip(ga, gb)),
                 "ghost-multiplicative", a, b)
        _require(witt.unghost(ga) == a, "unghost-of-ghost", a)
        # -t u'/u = sum g_j t^j for u = gamma(a)
        _require(-trunc.log_derivative(witt.gamma(a))
                 == TruncElem(ctx, m, (ctx.zero,) + ga), "log-derivative-identity", a)
        yield


@_check("exp-log-isomorphism")
def check_explog(ctx, seed, trials):
    """exp and log are mutually inverse homomorphisms on (t) and 1+(t)."""
    s = Sampler(ctx, seed)
    for k in range(trials):
        m = s.rng.randint(1, 8)
        a = s.sparse_nilpotent(m)
        u = exp_t(a)
        _require(log_t(u) == a, "log-of-exp", a)
        _require(exp_t(log_t(u)) == u, "exp-of-log", u)
        if k % 10 == 0:
            b = s.sparse_nilpotent(m)
            _require(exp_t(a + b) == u * exp_t(b), "exp-additive", a, b)
            w = s.principal_unit(min(m, 4))
            _require(log_t(u.restrict(w.level) * w) == a.restrict(w.level) + log_t(w),
                     "log-multiplicative", u, w)
        yield


@_check("verschiebung-frobenius-decompose")
def check_witt_vf(ctx, seed, trials):
    """F_s V_s = s, ghost formulas for V and F, restriction squares."""
    s = Sampler(ctx, seed)
    for _ in range(trials):
        m = s.rng.randint(2, 8)
        sv = s.v_index(m)
        a = s.witt(m // sv)
        fv = witt.frobenius(sv, witt.verschiebung(sv, a, m))
        ga = witt.ghost(a)
        s_id = witt.unghost(tuple(c * sv for c in ga))
        _require(fv == s_id, "frobenius-verschiebung", sv, a)
        kk = s.rng.randint(sv, m)
        _require(witt.verschiebung(sv, a, m).restrict(kk)
                 == witt.verschiebung(sv, a, kk), "restrict-verschiebung", sv, a, kk)
        b = s.witt(m)
        resum = witt.WittVector.zero(ctx, m)
        for i, ai in witt.witt_decompose(b):
            resum = resum + witt.verschiebung(
                i, witt.teichmuller(ai, max(1, m // i)), m)
        _require(resum == b, "decompose-resum", b)
        yield


@_suite("witt", 300)
def suite_witt(seed, trials, names):
    ctx = Context(names)
    return [check_ghost_gamma(ctx, seed, trials),
            check_explog(ctx, seed + 1, max(trials, 500)),
            check_witt_vf(ctx, seed + 2, max(trials // 3, 100))]


# -- drw suite ----------------------------------------------------------

@_check("restricted-witt-complex-relations")
def check_drw_relations(ctx, seed, trials):
    s = Sampler(ctx, seed)
    for _ in range(trials):
        m = s.rng.randint(2, 6)
        sv = s.v_index(m)
        n = s.rng.randint(0, max(0, ctx.r - 1))
        al = s.drw(n, m // sv)
        be = s.drw(s.rng.randint(0, ctx.r - 1), m)
        x0 = s.drw(s.rng.randint(0, ctx.r - 1), m // sv)
        _require(drw.drw_F(sv, drw.drw_d(drw.drw_V(sv, al, m))) == drw.drw_d(al),
                 "FdV-is-d", sv, al)
        _require(drw.drw_V(sv, x0 * drw.drw_F(sv, be), m) == drw.drw_V(sv, x0, m) * be,
                 "V-projection-formula", sv, x0, be)
        ga = s.drw(n, m)
        _require(drw.drw_d(drw.drw_d(ga)).is_zero(), "d-squared-zero", ga)
        lhs = drw.drw_d(ga * be)
        rhs = drw.drw_d(ga) * be + (ga * drw.drw_d(be)).scale((-1) ** n)
        _require(lhs == rhs, "leibniz", ga, be)
        kk = s.rng.randint(1, m)
        _require(drw.drw_d(ga).restrict(kk) == drw.drw_d(ga.restrict(kk)),
                 "restrict-commutes-d", ga)
        yield


@_check("V-dlog-and-zeta")
def check_drw_vdlog(ctx, seed, trials):
    """V_s(a dlog-terms) = V_s(a) dlog-terms, and zeta-coherence of phi."""
    s = Sampler(ctx, seed)
    for _ in range(trials):
        m = s.rng.randint(2, 6)
        sv = s.v_index(m)
        a = s.witt(m // sv)
        bs = [s.nonzero() for _ in range(s.rng.randint(1, max(1, ctx.r - 1)))]
        _require(drw.drw_V(sv, drw.phi(a, bs), m)
                 == drw.phi(witt.verschiebung(sv, a, m), bs), "V-dlog-identity", sv, a, bs)
        b = s.witt(m)
        built = drw.from_witt(b)
        for bb in bs:
            built = built * drw.teich_dlog(bb, m)
        _require(built == drw.phi(b, bs), "zeta-coherence", b, bs)
        yield


@_check("restriction-kernel-is-V-image")
def check_drw_kernel(ctx, seed, trials):
    """Kernel of restriction m+1 -> m equals the image of V_(m+1)."""
    s = Sampler(ctx, seed)
    for _ in range(trials):
        m = s.rng.randint(1, 5)
        n = s.rng.randint(0, ctx.r)
        v_img = drw.drw_V(m + 1, s.drw(n, 1), m + 1)
        _require(v_img.restrict(m).is_zero(), "V-image-in-kernel", v_img)
        _require(all(w.is_zero() for w in v_img.comps[:m]), "V-image-support", v_img)
        ker = drw.DRWForm(ctx, n, m + 1,
                          [DiffForm.zero(ctx, n)] * m + [s.form(n)])
        _require(ker.restrict(m).is_zero(), "kernel-support", ker)
        # every kernel element is V_(m+1) of something: solve top component
        top = ker.comps[m].scale(Fraction(1, m + 1))
        _require(drw.drw_V(m + 1, drw.DRWForm(ctx, n, 1, [top]), m + 1) == ker,
                 "kernel-in-V-image", ker)
        yield


@_suite("drw", 100)
def suite_drw(seed, trials, names):
    ctx = Context(names)
    return [check_drw_relations(ctx, seed, trials),
            check_drw_vdlog(ctx, seed + 1, trials),
            check_drw_kernel(ctx, seed + 2, trials)]


# -- relmilnor suite ----------------------------------------------------

@_check("reduce-mod-exact-contract")
def check_reduce_kills_exact(seed, trials_per_cell, r_max=3, m_max=6):
    """reduce_mod_exact kills exactly the exact relative forms; nonzero
    canonical forms have nonzero differential."""
    for r in range(1, r_max + 1):
        ctx = Context(tuple("xyz"[:r]))
        s = Sampler(ctx, seed + r)
        for n in range(1, r + 2):
            for m in range(1, m_max + 1):
                for _ in range(trials_per_cell):
                    beta = s.form_on_trunc(n - 1, m)
                    _require(reduce_mod_exact(beta.d()).is_zero(),
                             "reduce-kills-exact", beta)
                    yield
                for _ in range(max(1, trials_per_cell // 4)):
                    g = s.canon(n - 1, m)
                    _require(reduce_mod_exact(g.embed()) == g, "reduce-fixes-canonical", g)
                    _require(g.is_zero() or not g.embed().d().is_zero(),
                             "d-injective-on-canonical", g)
                    yield


@_check("normal-form-well-definedness")
def check_normal_form_welldef(ctx, seed, trials, m_max=6):
    s = Sampler(ctx, seed)
    nf = relmilnor.normal_form
    sym = relmilnor.RelSymbol
    for _ in range(trials):
        m = s.rng.randint(1, m_max)
        u, v = s.principal_unit(m, light=True), s.principal_unit(m, light=True)
        w = s.trunc_unit(m, light=True)
        # two-principal independence, directly as exactness
        f = embed_form(log_t(u)).wedge(trunc_dlog(v)) \
            + embed_form(log_t(v)).wedge(trunc_dlog(u))
        _require(reduce_mod_exact(f).is_zero(), "principal-entry-independence", u, v)
        _require(nf(sym([u, w])) == -nf(sym([w, u])), "antisymmetry", u, w)
        _require(nf(sym([u, u])).is_zero(), "square-vanishes", u)
        _require(nf(sym([u, TruncElem.constant(ctx.rational(-1), m)])).is_zero(),
                 "minus-one-vanishes", u)
        up = s.principal_unit(m)
        _require(nf(sym([u * up, w])) == nf([sym([u, w]), sym([up, w])]),
                 "bilinearity", u, up, w)
        c = s.nonzero()
        scaled = TruncElem.constant(c, m) * u
        _require(nf(sym([scaled, up]))
                 == nf([sym([u, up]), sym([TruncElem.constant(c, m), up])]),
                 "bilinearity-mixed-constant", c, u, up)
        yield


@_check("theta-roundtrip")
def check_theta_roundtrip(ctx, seed, trials_per_cell, m_max=6):
    s = Sampler(ctx, seed)
    for n in range(1, ctx.r + 2):
        for m in range(1, m_max + 1):
            for _ in range(trials_per_cell):
                a = s.nilpotent(m)
                bs = [s.nonzero() for _ in range(n - 1)]
                got = relmilnor.normal_form(relmilnor.theta(a, bs))
                want = embed_form(a)
                for b in bs:
                    want = want.wedge(FormOnTrunc.of(
                        ctx, 1, m, (dlog(b),) + (DiffForm.zero(ctx, 1),) * m))
                _require(got == reduce_mod_exact(want), "theta-roundtrip", a, bs)
                yield


@_check("product-and-restriction")
def check_relmilnor_products(ctx, seed, trials):
    s = Sampler(ctx, seed)
    for _ in range(trials):
        m = s.rng.randint(1, 5)
        u = s.principal_unit(m)
        w = s.trunc_unit(m)
        c = s.nonzero()
        xi = relmilnor.normal_form(relmilnor.RelSymbol([u, w]))
        via_canon = relmilnor.mult_by_absolute([c], xi)
        via_symbol = relmilnor.normal_form(
            relmilnor.RelSymbol([u, w, TruncElem.constant(c, m)]))
        _require(via_canon == via_symbol, "absolute-product", u, w, c)
        kk = s.rng.randint(1, m)
        _require(xi.restrict(kk) == relmilnor.normal_form(
                     relmilnor.RelSymbol([u.restrict(kk), w.restrict(kk)])),
                 "restriction-square", u, w, kk)
        yield


@_suite("relmilnor", 200)
def suite_relmilnor(seed, trials, names):
    ctx = Context(names)
    return [check_reduce_kills_exact(seed, max(trials // 10, 10)),
            check_normal_form_welldef(ctx, seed + 1, trials),
            check_theta_roundtrip(ctx, seed + 2, max(trials // 4, 25)),
            check_relmilnor_products(ctx, seed + 3, max(trials // 2, 50))]


# -- reciprocity suite --------------------------------------------------

def _reciprocity_symbol(s: Sampler, upos):
    """A random symbol over F(u) with fully rational support: entries are
    scaled products of linear factors (u - c) with c in the base field."""
    ctx = s.ctx
    u = ctx.var(upos)
    base = ctx.drop(upos)
    pool_base = [base.one, base.rational(2), base.rational(-1)] \
        + [base.var(i) for i in range(base.r)]
    n = s.rng.randint(1, min(3, 1 + base.r))
    entries = []
    for _ in range(n):
        e = ctx.lift(s.rng.choice(pool_base))
        for _ in range(s.rng.randint(0, 2)):
            c = s.rng.choice(pool_base)
            factor = u - ctx.lift(c)
            e = e * factor if s.rng.random() < 0.7 else e / factor
        entries.append(e)
    return milnorfield.FieldSymbol(ctx, entries, s.rng.choice([1, -1, 2]))


@_check("weil-reciprocity")
def check_weil_reciprocity(names, seed, trials):
    ctx = Context(tuple(names) + ("u",))
    upos = ctx.r - 1
    s = Sampler(ctx, seed)
    for _ in range(trials):
        sym = _reciprocity_symbol(s, upos)
        ok, ev = milnorfield.weil_reciprocity_check([sym], upos)
        _require(ok, "weil-reciprocity", sym, ev)
        yield


@_check("tame-symbol-basics")
def check_tame_basics(names, seed, trials):
    """Multilinearity of the tame symbol and vanishing on units."""
    ctx = Context(tuple(names) + ("u",))
    upos = ctx.r - 1
    base = ctx.drop(upos)
    s = Sampler(ctx, seed)
    u = ctx.var(upos)
    for k in range(trials):
        c = Sampler(base, seed + k).nonzero()
        clift = ctx.lift(c)
        v = milnorfield.Valuation.finite(ctx, upos, base.zero)
        e1 = u ** s.rng.randint(1, 3) * clift
        e2 = clift + u
        lhs = milnorfield.collect_terms(
            milnorfield.tame_symbol(v, milnorfield.FieldSymbol(ctx, [e1 * e2])))
        rhs = milnorfield.collect_terms(
            milnorfield.tame_symbol(v, milnorfield.FieldSymbol(ctx, [e1]))
            + milnorfield.tame_symbol(v, milnorfield.FieldSymbol(ctx, [e2])))
        _require(sum(t.coef for t in lhs) == sum(t.coef for t in rhs),
                 "tame-multilinearity-n1", e1, e2)
        # units-only symbols die
        unit = clift + u * u
        got = milnorfield.tame_symbol(
            v, milnorfield.FieldSymbol(ctx, [1 + u * clift, unit]))
        _require(not got, "tame-kills-units", unit)
        yield


@_suite("reciprocity", 50)
def suite_reciprocity(seed, trials, names):
    return [check_weil_reciprocity(names, seed, trials),
            check_tame_basics(names, seed + 1, max(trials // 2, 20))]


# -- cycle-iso suite ----------------------------------------------------

@_check("cycle-class-dictionary")
def check_cycle_dictionary(ctx, seed, trials):
    s = Sampler(ctx, seed)
    for _ in range(trials):
        n = s.rng.randint(1, ctx.r + 1)
        m = s.rng.randint(1, 6)
        z = s.cycle_gen(n, m)
        om = addchow.cycle_to_drw(z, m)
        via_drw = addchow.drw_to_milnor_diagonal(om)
        _require(via_drw == addchow.cyc_milnor(z, m), "diagonal-vs-symbol", z)
        _require(addchow.milnor_to_drw_diagonal(via_drw) == om, "diagonal-invertible", z)
        yield


@_check("tower-compatibility")
def check_towers(ctx, seed, trials):
    s = Sampler(ctx, seed)
    for _ in range(trials):
        n = s.rng.randint(1, ctx.r + 1)
        m = s.rng.randint(1, 5)
        mp = s.rng.randint(m + 1, 6)
        z = s.cycle_gen(n, mp)
        _require(addchow.tower_compat(z, mp, m), "tower-compatibility", z, mp, m)
        yield


@_check("boundary-vanishing")
def check_boundary_vanishing(names, seed, count):
    """The boundary of a modulus-satisfying parametrized curve has Milnor
    class zero, at levels m = 1..4.  Cube coordinates are built from pools
    with prescribed contact order with 1 at the zero of the t-coordinate.
    Each curve is cut once, by verify_boundary_vanishing; a curve with two
    cube coordinates degenerate at one point is drawn again."""
    ctx = Context(tuple(names) + ("u",))
    upos = ctx.r - 1
    base = ctx.drop(upos)
    u = ctx.var(upos)
    s = Sampler(ctx, seed)
    lift = ctx.lift

    def ord2(scale):  # ord_0(g - 1) = 2, rational faces at +-1/scale
        return 1 - lift(scale) ** 2 * u ** 2

    def ord3(scale):  # two rational cubics sharing e1 and e2
        lam = lift(scale)
        num = (1 - lam * u) * (1 - 5 * lam * u) * (1 - 6 * lam * u)
        den = (1 - 2 * lam * u) * (1 - 3 * lam * u) * (1 - 7 * lam * u)
        return num / den

    def plain(scale):  # ord_0(g - 1) = 1
        return 1 - lift(scale) * u

    pool_scale = [base.one, base.rational(2)] + [base.var(i) for i in range(base.r)]
    done = 0
    while done < count:
        m = s.rng.randint(1, 4)
        kind = s.rng.randrange(3)
        if kind == 0:
            # constant t-coordinate: modulus vacuous, pure reciprocity
            g0 = lift(s.rng.choice(pool_scale)) + lift(base.rational(3))
            n = s.rng.randint(1, 2)
            gs = [g0]
            for _ in range(n):
                e = plain(s.rng.choice(pool_scale))
                if s.rng.random() < 0.5:
                    e = e / plain(s.rng.choice(pool_scale))
                gs.append(e)
        elif kind == 1:
            # g0 = u, one cube coordinate with contact m + 1 >= 2
            if m == 1:
                gs = [u, ord2(s.rng.choice(pool_scale))]
            elif m == 2:
                gs = [u, ord3(s.rng.choice(pool_scale))]
            else:
                # split the contact across two coordinates
                gs = [u, ord3(s.rng.choice(pool_scale)),
                      ord2(s.rng.choice(pool_scale))]
        elif m > 2:
            continue
        else:
            # g0 = u with a constant second coordinate mixed in
            extra = lift(s.rng.choice(pool_scale)) + lift(base.rational(4))
            gs = [u, ord3(s.rng.choice(pool_scale)), extra]
        curve = addchow.ParamCurve(ctx, upos, gs)
        try:
            ok, ev = addchow.verify_boundary_vanishing(curve, m)
        except FaceDegenerate:
            continue
        _require(ok, "boundary-vanishing", curve, m, ev)
        done += 1
        yield


@_suite("cycle-iso", 300)
def suite_cycle_iso(seed, trials, names):
    ctx = Context(names)
    return [check_cycle_dictionary(ctx, seed, trials),
            check_towers(ctx, seed + 1, max(trials // 3, 100)),
            check_boundary_vanishing(names, seed + 2, max(trials // 10, 30))]


# -- rewriting suite ----------------------------------------------------

@_check("two-entry-identity-both-branches")
def check_elem_identity(names, seed, trials):
    """The two-entry identity under dlog and boundary realizations,
    both branches.  Each pass yields twice, once per branch, and the
    count is checked only between passes, so an odd trial count rounds
    up to the next even one."""
    ctx = Context(names)
    s = Sampler(ctx, seed)
    done = 0
    while done < trials:
        a, b = s.nonzero(1), s.nonzero(1)
        sv, tau = s.nonzero(1), s.nonzero(1)
        try:
            lhs, rhs = milnorfield.elem_identity_instance(a, b, sv, tau)
        except (DegenerateBranch, ZeroEntry):
            continue
        ok, _ = milnorfield.zero_by_realizations([lhs, rhs.scale(-1)])
        _require(ok, "two-entry-identity", a, b, sv, tau)
        done += 1
        yield
        # forced degenerate branch: b t = -1/(as) - 1
        b2 = (-(a * sv).inv() - 1) / tau
        try:
            milnorfield.elem_identity_instance(a, b2, sv, tau)
        except DegenerateBranch:
            pass
        else:
            _require(False, "degenerate-branch-detected", a, b2, sv, tau)
        lhs0 = milnorfield.FieldSymbol(ctx, [1 + a * sv, 1 + b2 * tau])
        _require(milnorfield.dlog_is_zero([lhs0]),
                 "degenerate-branch-zero", a, b2, sv, tau)
        done += 1
        yield


@_check("filtration-rewriting")
def check_rewrite_filtration(names, seed, trials):
    """Filtration certificates: ord bounds on the leading unit, pi-unit
    residuals, and realization agreement with the input."""
    ctx = Context(tuple(names) + ("pi",))
    upos = ctx.r - 1
    base = ctx.drop(upos)
    pi = ctx.var(upos)
    v = milnorfield.Valuation.finite(ctx, upos, base.zero)
    s = Sampler(ctx, seed)
    for k in range(1, trials + 1):  # k seeds the base-field draws
        nentries = s.rng.randint(1, 3)
        m = s.rng.randint(1, 4)
        entries = []
        total = 0
        for i in range(nentries):
            mi = s.rng.randint(1, max(1, m - total)) if i < nentries - 1 \
                else max(1, m - total)
            ui = ctx.lift(Sampler(base, seed + 31 * k + i).nonzero(1))
            if s.rng.random() < 0.3:
                ui = ui + pi  # a pi-dependent unit of the local ring
            entries.append(1 + ui * pi ** mi)
            total += mi
        sym = milnorfield.FieldSymbol(ctx, entries, s.rng.choice([1, -1]))
        pairs = milnorfield.rewrite_filtration(sym, m, upos)
        for w, res in pairs:
            _require(v.ord(w - 1) >= m, "filtration-ord-bound", sym, w)
            _require(all(v.ord(e) == 0 for e in res.entries),
                     "filtration-unit-residuals", sym, res)
        recombined = [milnorfield.FieldSymbol(ctx, (w,) + res.entries, res.coef)
                      for w, res in pairs]
        diff = recombined + [sym.scale(-1)]
        _require(milnorfield.dlog_is_zero(diff),
                 "filtration-dlog-agreement", sym)
        tdiff = [term for t in diff for term in milnorfield.tame_symbol(v, t)]
        if tdiff:
            ok, _ = milnorfield.zero_by_realizations(tdiff)
            _require(ok, "filtration-tame-agreement", sym)
        yield


@_suite("rewriting", 50)
def suite_rewriting(seed, trials, names):
    return [check_elem_identity(names, seed, trials),
            check_rewrite_filtration(names, seed + 1, trials)]


def run_suite(name, seed=0, trials=None, names=("x", "y")):
    if name == "all":
        reports = [fn(seed, trials, names) for fn in SUITES.values()]
        return {"suite": "all", "ok": all(r["ok"] for r in reports),
                "reports": reports}
    if name not in SUITES:
        raise ValueError("unknown suite %r" % name)
    return SUITES[name](seed, trials, names)
