"""Symbol calculus over F(u): valuations, tame symbols, reciprocity,
and the two rewriting procedures.

The two-entry identity, tame symbols, the filtration rewriting and the
dlog zero test are checked against the routes they replaced, written out
below: the identity built inline, the bitmask expansion with its
``while`` loop, the rewriting through pi^(-m) round trips with its
stack, and the dlog form built as a sum of wedges over the field, of
dlog forms taken as the quotient du/u (``test_forms.old_dlog``).
``forms.dlog_wedge``, which reads the same formula as the dlog zero
test, is checked against the wedge of dlog forms it replaced."""

import random
import signal
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import prod

import pytest
from sympy.polys.rings import PolyElement

from wittcycles.errors import (ContextMismatch, DegenerateBranch, HypothesisViolated,
                               NonRationalSupport, ShapeError, WittCyclesError,
                               ZeroArgument, ZeroEntry)
from wittcycles import milnorfield, scalars
from wittcycles.forms import DiffForm, dlog, dlog_wedge
from wittcycles.milnorfield import (FieldSymbol, Valuation, collect_terms,
                                    dlog_is_zero, elem_identity_instance,
                                    gersten_boundary, rewrite_filtration,
                                    tame_symbol, two_entry,
                                    weil_reciprocity_check, zero_by_realizations)
from wittcycles.scalars import FACTOR_CACHE_SIZE, Context, FieldElem, _factors, as_sum
from wittcycles.verify import Sampler

from test_forms import _dlog_args, old_dlog


@pytest.fixture
def ctx():
    return Context(("x", "y", "u"))


UPOS = 2


def test_valuation_ord_residue(ctx):
    x, y, u = ctx.gens()
    base = ctx.drop(UPOS)
    bx, by = base.gens()
    f = (u - x) ** 2 * (u + 1) / (u - 2)
    o, r = Valuation.finite(ctx, UPOS, bx).ord_residue(f)
    assert o == 2 and r == (bx + 1) / (bx - 2)
    o, r = Valuation.infinity(ctx, UPOS).ord_residue(f)
    assert o == -2 and r == base.one
    o, r = Valuation.infinity(ctx, UPOS).ord_residue(5 / u)
    assert o == 1 and r == base.rational(5)


def _timeout(signum, frame):
    raise TimeoutError("no result within the alarm")


def test_residue_strips_the_point_at_most_once(monkeypatch):
    """A strip that divides nothing leaves the value at the point zero.
    The residue takes that zero as it is, and does not strip again for
    ever."""
    xu = Context(("x", "u"))
    x, u = xu.gens()
    monkeypatch.setattr(scalars.Context, "strip", lambda self, poly, fac, pos: (0, poly))
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(5)
    try:
        try:
            Valuation.finite(xu, 1, Fraction(1, 2)).ord_residue((2 * u - 1) * (u + x))
        except WittCyclesError:
            pass
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _factor_list_calls(monkeypatch, poly):
    """The polynomials factor_list is called on from now on."""
    calls = []
    original = type(poly).factor_list
    monkeypatch.setattr(type(poly), "factor_list",
                        lambda self: calls.append(self) or original(self))
    return calls


def test_u_factors_skip_polynomials_free_of_u(ctx, monkeypatch):
    # an earlier test may have factored x*u - 1 already
    _factors.cache_clear()
    x, y, u = ctx.gens()
    f = (2 * x * (u - x) ** 2 * (u * u + y) / (3 * (x + 1))).num
    # the factors 2 and x are dropped, and so is the multiplicity of x - u
    assert [str(g) for g in ctx.u_factors(f, UPOS)] == ["u**2 + y", "x - u"]
    calls = _factor_list_calls(monkeypatch, f)
    for g in (ctx.rational(5), x * y + 1, 6 * x):
        assert ctx.u_factors(g.num, UPOS) == []
    assert not calls
    assert len(ctx.u_factors((u * x - 1).num, UPOS)) == 1 and len(calls) == 1


def test_u_factors_factor_each_polynomial_once(ctx, monkeypatch):
    x, y, u = ctx.gens()
    f = ((u - x) * (x * y + u) * (y - 2)).num
    _factors.cache_clear()
    calls = _factor_list_calls(monkeypatch, f)
    at_u = {str(g) for g in ctx.u_factors(f, UPOS)}
    assert at_u == {"x - u", "x*y + u"}
    assert {str(g) for g in ctx.u_factors(f, UPOS)} == at_u
    # the same factoring serves the u-line of x and of y
    assert {str(g) for g in ctx.u_factors(f, 0)} == {"x - u", "x*y + u"}
    assert {str(g) for g in ctx.u_factors(f, 1)} == {"x*y + u", "y - 2"}
    assert calls == [f]


def test_factors_keep_the_ring_of_each_context():
    a, b = Context(("x", "u")), Context(("y", "u"))
    fa = (a.var(0) * a.var(1) - 1).num
    fb = (b.var(0) * b.var(1) - 1).num
    assert dict(fa) == dict(fb) and fa.ring is not fb.ring
    for poly, ctx in ((fa, a), (fb, b), (fa, a), (fb, b)):
        got, = ctx.u_factors(poly, 1)
        assert got.ring is ctx.ring and got == poly


def test_factor_cache_is_bounded(ctx, monkeypatch):
    x, y, u = ctx.gens()
    products = [((u - k * x) * (u + y) * (x - k)).num for k in (1, 2, 3)]
    _factors.cache_clear()
    for f in products:
        ctx.u_factors(f, UPOS)
    for k in range(1, FACTOR_CACHE_SIZE + 10):
        ctx.u_factors((x * u - k).num, UPOS)
    assert _factors.cache_info().currsize <= FACTOR_CACHE_SIZE
    # the products were evicted: they are factored again, and correctly
    calls = _factor_list_calls(monkeypatch, products[0])
    for f in products:
        got = _factors(ctx.ring, f)
        assert len(got) == 3 and prod(got) in (f, -f)
    assert calls == products


def test_tame_symbol_values(ctx):
    x, y, u = ctx.gens()
    base = ctx.drop(UPOS)
    bx, by = base.gens()
    v0 = Valuation.finite(ctx, UPOS, base.zero)
    # uniformizer against a unit: residue survives
    res = tame_symbol(v0, FieldSymbol(ctx, [u, ctx.lift(bx + by)]))
    assert len(res) == 1 and res[0].entries == (bx + by,) and res[0].coef == 1
    # two units: nothing
    assert tame_symbol(v0, FieldSymbol(ctx, [1 + u * x, x + u])) == []
    # residue 1 gives the trivial symbol {1}
    v1 = Valuation.finite(ctx, UPOS, base.one)
    res = tame_symbol(v1, FieldSymbol(ctx, [u - 1, u]))
    assert len(res) == 1 and res[0].entries == (base.one,)
    # repeated uniformizer contracts to {-1}
    res = collect_terms(tame_symbol(v0, FieldSymbol(ctx, [u, u])))
    assert len(res) == 1 and res[0].entries == (base.rational(-1),)
    assert res[0].coef == 1
    # degree-1 symbol drops to a bare multiplicity
    res = tame_symbol(v0, FieldSymbol(ctx, [u * u * ctx.lift(bx)]))
    assert len(res) == 1 and res[0].entries == () and res[0].coef == 2


def test_gersten_boundary(ctx):
    x, y, u = ctx.gens()
    base = ctx.drop(UPOS)
    bx = base.var(0)
    bnd = gersten_boundary(FieldSymbol(ctx, [u]), UPOS)
    totals = {repr(v): sum(s.coef for s in parts) for v, parts in bnd}
    assert totals == {"(u = 0)": 1, "(u = infinity)": -1}
    # {u^2, x}: 2{x} at (u), -2{x} at infinity
    bnd = gersten_boundary(FieldSymbol(ctx, [u * u, ctx.lift(bx)]), UPOS)
    per = {repr(v): parts for v, parts in bnd}
    assert sum(t.coef for t in per["(u = 0)"] if t.entries == (bx,)) == 2
    assert sum(t.coef for t in per["(u = infinity)"] if t.entries == (bx,)) == -2
    # no rational roots: the points do not cover the support
    with pytest.raises(NonRationalSupport, match=r"^support outside rational points: "
                       r"\['u\*\*2 \+ 1'\]$"):
        gersten_boundary(FieldSymbol(ctx, [u * u + 1]), UPOS)


def test_weil_reciprocity(ctx):
    x, y, u = ctx.gens()
    base = ctx.drop(UPOS)
    c = ctx.lift(base.var(0) + base.var(1))
    ok, ev = weil_reciprocity_check(FieldSymbol(ctx, [u, c]), UPOS)
    assert ok, ev
    ok, ev = weil_reciprocity_check(FieldSymbol(ctx, [u, 1 - u]), UPOS)
    assert ok, ev
    ok, ev = weil_reciprocity_check(FieldSymbol(ctx, [u - x, u - y, c]), UPOS)
    assert ok, ev
    with pytest.raises(NonRationalSupport):
        weil_reciprocity_check(FieldSymbol(ctx, [u * u + 1, u]), UPOS)
    # a factor shared by two entries is reported once
    with pytest.raises(NonRationalSupport, match=r"^support outside rational points: "
                       r"\['u\*\*2 \+ 1'\]$"):
        weil_reciprocity_check(FieldSymbol(ctx, [u * u + 1, (u * u + 1) * (u - 1)]), UPOS)


def test_realizations_take_no_tame_symbol_on_non_rational_support(monkeypatch):
    """{x^2 + y, x - y} has the non-rational factor x^2 + y on the x-line
    and only rational points on the y-line: zero_by_realizations skips the
    x-line without taking a single tame symbol there."""
    b2 = Context(("x", "y"))
    x, y = b2.gens()
    lines = Counter()

    def counted(v, sym):
        if v.ctx is b2:
            lines[b2.names[v.upos]] += 1
        return tame_symbol(v, sym)

    monkeypatch.setattr(milnorfield, "tame_symbol", counted)
    ok, ev = zero_by_realizations([FieldSymbol(b2, [x * x + y, x - y])])
    assert ev["var_x"] == "skipped: non-rational support"
    assert ev["var_y"] is False and not ok
    assert lines["x"] == 0 and lines["y"] > 0


def test_dlog_realization():
    b2 = Context(("x", "y"))
    x, y = b2.gens()
    assert dlog_is_zero(FieldSymbol(b2, [x, 1 - x]))
    assert old_dlog_realization(FieldSymbol(b2, [x, y])) == dlog(x).wedge(dlog(y))
    assert not dlog_is_zero(FieldSymbol(b2, [x, y]))
    assert dlog_is_zero(FieldSymbol(b2, [b2.rational(-1), y]))


def test_two_entry_identity():
    b2 = Context(("x", "y"))
    x, y = b2.gens()
    for a, b, s, tau in [(b2.one, b2.one, x, y),
                         (b2.rational(2), b2.one, x, x),
                         (x, y, x + 1, y - 2)]:
        lhs, rhs = elem_identity_instance(a, b, s, tau)
        assert dlog_is_zero([lhs, rhs.scale(-1)])


def test_two_entry_identity_degenerate_branch():
    b2 = Context(("x", "y"))
    x, y = b2.gens()
    with pytest.raises(DegenerateBranch):
        elem_identity_instance(b2.one, -1 / x - 1, x, b2.one)
    # the left side alone realizes to zero in the degenerate case
    s = FieldSymbol(b2, [1 + x, -1 / x])
    assert dlog_is_zero([s])


@pytest.fixture
def pctx():
    return Context(("x", "pi"))


def test_filtration_base_case(pctx):
    px, pi = pctx.gens()
    v = Valuation.finite(pctx, 1, pctx.drop(1).zero)
    m = 3
    out = rewrite_filtration(FieldSymbol(pctx, [1 + px * pi ** m]), m, 1)
    assert len(out) == 1 and out[0][1].entries == ()
    assert v.ord(out[0][0] - 1) >= m


def test_filtration_two_entries(pctx):
    px, pi = pctx.gens()
    v = Valuation.finite(pctx, 1, pctx.drop(1).zero)
    sym = FieldSymbol(pctx, [1 + pi, 1 + pi ** 2 * px])
    out = rewrite_filtration(sym, 3, 1)
    for w, res in out:
        assert v.ord(w - 1) >= 3
        for e in res.entries:
            assert v.ord(e) == 0
    # realization agreement with the input
    assert dlog_is_zero(_recombined(pctx, out) + [sym.scale(-1)])
    # pi-adic tame symbols agree as well
    tin = tame_symbol(v, sym)
    tout = []
    for w, res in out:
        tout.extend(tame_symbol(v, FieldSymbol(pctx, (w,) + res.entries, res.coef)))
    diff = tin + [t.scale(-1) for t in tout]
    if diff:
        assert dlog_is_zero(diff)
    ok, ev = zero_by_realizations(_recombined(pctx, out) + [sym.scale(-1)])
    assert ok, ev


def test_filtration_early_exit(pctx):
    px, pi = pctx.gens()
    sym = FieldSymbol(pctx, [1 + px * pi, 1 + px * pi ** 5])
    out = rewrite_filtration(sym, 3, 1)
    assert len(out) == 1
    assert out[0][0] == 1 + px * pi ** 5 and out[0][1].coef == -1


def test_filtration_hypothesis_check(pctx):
    px, pi = pctx.gens()
    with pytest.raises(HypothesisViolated):
        rewrite_filtration(FieldSymbol(pctx, [1 + pi, 1 + pi]), 5, 1)


def _recombined(ctx, pairs):
    return [FieldSymbol(ctx, (w,) + res.entries, res.coef) for w, res in pairs]


def test_filtration_moves_a_unit_to_the_front(pctx):
    px, pi = pctx.gens()
    v = Valuation.finite(pctx, 1, pctx.drop(1).zero)
    # orders 0, 2, 1: pi*x is no unit of the local ring, so 1 + pi^2 leads
    sym = FieldSymbol(pctx, [pi * px, 1 + pi ** 2, 1 + pi])
    out = rewrite_filtration(sym, 3, 1)
    assert len(out) == 4
    for w, res in out:
        assert v.ord(w - 1) >= 3 and all(v.ord(e) == 0 for e in res.entries)
    ok, ev = zero_by_realizations(_recombined(pctx, out) + [sym.scale(-1)])
    assert ok, ev


def test_filtration_degenerate_branch(pctx):
    px, pi = pctx.gens()
    # {1 + pi, -1/pi} = -{1 + pi, -pi}, a Steinberg symbol
    sym = FieldSymbol(pctx, [1 + pi, -1 / pi, 1 + pi ** 2, 1 + pi ** 2])
    assert rewrite_filtration(sym, 4, 1) == []
    # so does an entry 1, whatever the orders of the others
    assert rewrite_filtration(FieldSymbol(pctx, [1 + pi, pctx.one]), 5, 1) == []


def test_filtration_keeps_a_unit_front(pctx):
    """Entries with a pole at pi (ord(y - 1) < 0) and units with
    ord(y - 1) = 0 ahead of the entries of positive order.  Each step
    keeps the sum of the orders, so while every order is below m >= 1 a
    unit of positive or zero order leads: the only error is the top-level
    hypothesis check, and the pairs realize the input."""
    rng = random.Random(31)
    px, pi = pctx.gens()
    v = Valuation.finite(pctx, 1, pctx.drop(1).zero)

    def c():
        return pctx.rational(rng.choice((1, -1, 2, 3))) * rng.choice((pctx.one, px, px + 1))
    poles = units = raised = 0
    for _ in range(60):
        head = [c() / pi ** rng.randint(1, 2) if rng.random() < 0.5 else 2 + c() * pi
                for _ in range(rng.randint(1, 2))]
        tail = [1 + c() * pi ** rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        sym = FieldSymbol(pctx, head + tail, rng.choice((1, -1)))
        ks = [v.ord(y - 1) for y in sym.entries]
        m = rng.randint(1, max(sum(ks), 1) + 1)
        try:
            out = rewrite_filtration(sym, m, 1)
        except HypothesisViolated as exc:
            assert str(exc) == "sum of ord(y_i - 1) = %d < %d" % (sum(ks), m)
            raised += 1
            continue
        for w, res in out:
            assert v.ord(w - 1) >= m and all(v.ord(e) == 0 for e in res.entries)
        assert dlog_is_zero(_recombined(pctx, out) + [sym.scale(-1)])
        poles += min(ks) < 0 and max(ks) < m
        units += ks[0] == 0 and max(ks) < m
    assert poles and units and raised


def test_two_entry_degenerates_exactly_when_w_vanishes():
    b2 = Context(("x", "y"))
    s = Sampler(b2, 5)
    seen = {True: 0, False: 0}
    for k in range(120):
        y1 = 1 + s.nonzero(1) * s.nonzero(1)
        y2 = (1 - y1).inv() if k % 3 == 0 else s.nonzero(1)
        if y1.is_zero() or (y1 - 1).is_zero():
            continue
        degenerate = (1 + y2 * (y1 - 1)).is_zero()
        seen[degenerate] += 1
        if degenerate:
            with pytest.raises(DegenerateBranch):
                two_entry(y1, y2)
            assert dlog_is_zero([FieldSymbol(b2, [y1, y2])])
            continue
        w, v = two_entry(y1, y2)
        assert not w.is_zero()
        assert dlog_is_zero([FieldSymbol(b2, [y1, y2]), FieldSymbol(b2, [w, v])])
    assert seen[True] >= 30 and seen[False] >= 60


# -- the routes that two_entry and the pi-adic expansion replaced -----------


def old_elem_identity_instance(a, b, s, tau):
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


def old_tame_symbol(v, sym):
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


def old_rewrite_filtration(sym, m, upos):
    ctx = sym.ctx
    pi = ctx.var(upos)
    v = Valuation.finite(ctx, upos, ctx.drop(upos).zero)

    def recurse(entries, coef):
        entries = list(entries)
        one = ctx.one
        if any((y - one).is_zero() for y in entries):
            return []
        ms = [v.ord(y - one) for y in entries]
        for i, mi in enumerate(ms):
            if mi >= m:
                rest = entries[:i] + entries[i + 1:]
                return [(entries[i], FieldSymbol(ctx, rest, coef * (-1) ** i))]
        if len(entries) == 1:
            raise HypothesisViolated("single entry below the filtration level")
        front = None
        for i, y in enumerate(entries):
            if ms[i] >= 0 and v.ord(y) == 0:
                front = i
                break
        if front is None:
            raise HypothesisViolated("no entry is a unit of the local ring")
        if front != 0:
            coef = coef * (-1) ** front
            entries.insert(0, entries.pop(front))
            ms.insert(0, ms.pop(front))
        y1, y2 = entries[0], entries[1]
        m1, m2 = ms[0], ms[1]
        u1 = (y1 - one) * pi ** (-m1)
        u2 = (y2 - one) * pi ** (-m2)
        if (one + y2 * u1 * pi ** m1).is_zero():
            return []
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


def _outcome(fn, *args):
    """fn(*args), or the type and message of the error it raised."""
    try:
        return fn(*args)
    except WittCyclesError as exc:
        return type(exc), str(exc)


def _terms(symbols):
    """A symbol sum as {sorted entries: coefficient}, each coefficient
    taking the sign of the sort.  Terms with a repeated entry are left
    out: {a, a} = {a, -1} is 2-torsion, zero under rational coefficients,
    and the sign of its sort is not defined."""
    acc = {}
    for sym in symbols:
        keys = [str(y) for y in sym.entries]
        if len(set(keys)) < len(keys):
            continue
        order = sorted(range(len(keys)), key=keys.__getitem__)
        inversions = sum(i > j for i, j in combinations(order, 2))
        key = tuple(keys[i] for i in order)
        acc[key] = acc.get(key, 0) + (-1) ** inversions * sym.coef
    return {key: c for key, c in acc.items() if c}


def _assert_same_sum(old, new):
    assert _terms(old) == _terms(new)
    ok, ev = zero_by_realizations(old + [t.scale(-1) for t in new])
    assert ok, ev


def test_two_entry_identity_matches_the_old_route():
    b2 = Context(("x", "y"))
    s = Sampler(b2, 2021)
    kinds = {}
    for k in range(400):
        a, b, sv, tau = (s.nonzero(1) for _ in range(4))
        if k % 4 == 1:
            b = (-(a * sv).inv() - 1) / tau  # the degenerate branch
        elif k % 20 == 2:
            sv = -a.inv()  # 1 + as = 0
        elif k % 20 == 3:
            a = b2.zero
        old = _outcome(old_elem_identity_instance, a, b, sv, tau)
        new = _outcome(elem_identity_instance, a, b, sv, tau)
        if isinstance(old[0], FieldSymbol):
            assert [(t.entries, t.coef, repr(t)) for t in new] == \
                [(t.entries, t.coef, repr(t)) for t in old]
        else:
            assert new == old
        kinds[old[0] if isinstance(old[0], type) else "ok"] = 1
    assert set(kinds) == {"ok", DegenerateBranch, ZeroEntry}


def _tame_draws(rng, count):
    ctx = Context(("x", "u"))
    base = ctx.drop(1)
    x, u = ctx.gens()
    factors = [u, u - 1, u - x, u + 2, 1 + x * u, x, x + u, u * u + 1,
               ctx.rational(-1), ctx.rational(3)]
    valuations = [Valuation.finite(ctx, 1, c)
                  for c in (base.zero, base.one, base.var(0), base.rational(-2))]
    valuations.append(Valuation.infinity(ctx, 1))
    for _ in range(count):
        entries = [prod(rng.choice(factors) ** rng.choice((1, 1, 2, -1))
                        for _ in range(rng.randint(1, 3)))
                   for _ in range(rng.randint(1, 3))]
        sym = FieldSymbol(ctx, entries, rng.choice((1, -1, 2)))
        for v in valuations:
            yield v, sym


def test_tame_symbol_matches_the_old_expansion():
    rng = random.Random(2021)
    repeated = 0
    for v, sym in _tame_draws(rng, 144):
        old, new = old_tame_symbol(v, sym), tame_symbol(v, sym)
        assert len(old) == len(new)
        repeated += len(_terms(old)) < len(collect_terms(old))
        _assert_same_sum(old, new)
    assert repeated  # the draws reach terms with a repeated entry


def _filtration_entry(ctx, rng):
    x, pi = ctx.gens()
    c = ctx.rational(rng.choice((1, -1, 2, 3))) * rng.choice((ctx.one, x, x + 1))
    kind = rng.randrange(6)
    if kind < 2:
        return 1 + c * pi ** rng.randint(1, 3)
    if kind == 2:
        return 1 + (c + pi) * pi ** rng.randint(1, 3)  # a pi-dependent unit
    if kind == 3:
        return c * pi ** rng.randint(1, 2)  # ord(y - 1) = 0, no unit
    if kind == 4:
        return 2 + c * pi  # a unit outside 1 + pi R
    return c / pi


def test_filtration_matches_the_old_rewriting(pctx):
    rng = random.Random(2021)
    v = Valuation.finite(pctx, 1, pctx.drop(1).zero)
    done = raised = 0
    while done < 80:
        sym = FieldSymbol(pctx, [_filtration_entry(pctx, rng)
                                 for _ in range(rng.randint(2, 3))], rng.choice((1, -1)))
        total = sum(v.ord(y - 1) for y in sym.entries if not (y - 1).is_zero())
        if total < 1:
            continue
        m = rng.randint(1, total + 1)  # total + 1 violates the hypothesis
        old = _outcome(old_rewrite_filtration, sym, m, 1)
        new = _outcome(rewrite_filtration, sym, m, 1)
        if isinstance(old, tuple):
            assert new == old
            raised += 1
            continue
        assert len(new) == len(old)
        for w, res in new:
            assert v.ord(w - 1) >= m and all(v.ord(e) == 0 for e in res.entries)
        _assert_same_sum(_recombined(pctx, old), _recombined(pctx, new))
        done += 1
    assert raised


def old_dlog_realization(terms) -> DiffForm:
    """The form sum coef * dlog(y_1)^..^dlog(y_n) of a symbol sum, built
    by wedging the quotients dy/y over the field."""
    terms = as_sum(terms)
    ctx = terms[0].ctx
    n = terms[0].degree
    total = DiffForm.zero(ctx, n)
    for sym in terms:
        if sym.degree != n:
            raise ValueError("mixed degrees in one symbol sum")
        total = total + reduce(DiffForm.wedge, map(old_dlog, sym.entries),
                               DiffForm.scalar(ctx.one)).scale(sym.coef)
    return total


def old_dlog_wedge(ctx, values) -> DiffForm:
    """dlog(v_1)^..^dlog(v_k) as a wedge of 1-forms, each product and sum
    cancelled as it goes: the route dlog_wedge took before it divided once
    per coefficient of forms.dlog_sum."""
    return reduce(DiffForm.wedge, map(dlog, values), DiffForm.scalar(ctx.one))


def _dlog_draws(rng, count):
    """Seeded symbol sums in 1-3 variables and of degrees 1-3, whose
    entries are rational multiples of products of one or two factors,
    each to the power 1, 2 or -1.  Every other draw presents one symbol
    twice (multiplicativity in an entry, antisymmetry, the two-entry
    identity or {a, 1 - a}), so it is zero; the rest are random sums."""
    for k in range(count):
        ctx = Context(("x", "y", "z")[:k % 3 + 1])
        gens = ctx.gens()
        pool = [f for g in gens for h in gens
                for f in (g, g + 1, 2 * g - 3, g * h + 1, g - 2 * h)]

        def entry():
            return ctx.rational(rng.choice((1, -1, 2, Fraction(3, 4)))) * prod(
                rng.choice(pool) ** rng.choice((1, 1, 2, -1))
                for _ in range(rng.randint(1, 2)))
        n = rng.randint(1, 3)
        ys = [entry() for _ in range(n)]
        coef = rng.choice((1, -2, Fraction(3, 5)))
        if k % 2:
            yield [FieldSymbol(ctx, [entry() for _ in range(n)], rng.choice((1, -1, 2)))
                   for _ in range(rng.randint(1, 3))]
            continue
        kind = rng.randrange(4)
        if kind == 0 or n == 1:
            i, f, g = rng.randrange(n), entry(), entry()
            yield [FieldSymbol(ctx, ys[:i] + [y] + ys[i + 1:], c)
                   for y, c in ((f * g, coef), (f, -coef), (g, -coef))]
        elif kind == 1:
            i, j = rng.sample(range(n), 2)
            swapped = list(ys)
            swapped[i], swapped[j] = ys[j], ys[i]
            yield [FieldSymbol(ctx, ys, coef), FieldSymbol(ctx, swapped, coef)]
        elif kind == 2 and not (ys[0] - 1).is_zero() and not (1 + (ys[0] - 1) * ys[1]).is_zero():
            w, v = two_entry(ys[0], ys[1])
            yield [FieldSymbol(ctx, ys, coef), FieldSymbol(ctx, [w, v] + ys[2:], coef)]
        elif not (ys[0] - 1).is_zero():
            yield [FieldSymbol(ctx, [ys[0], 1 - ys[0]] + ys[2:], coef)]


def test_dlog_is_zero_matches_the_form():
    rng = random.Random(2929)
    seen = set()
    for terms in _dlog_draws(rng, 180):
        want = old_dlog_realization(terms).is_zero()
        assert dlog_is_zero(terms) == want, terms
        ctx = terms[0].ctx
        seen.add((want, terms[0].degree <= ctx.r))
        seen.update(type(y.den) is int for sym in terms for y in sym.entries)
    # both verdicts where the degree does not decide, and both tiers
    assert seen == {(True, True), (True, False), (False, True), True, False}


def _wedge_lists(rng, count):
    """(ctx, values): the entry lists of _dlog_draws, then lists of 0-3
    values of _dlog_args over one context, whose args i share the context
    of the args i + 3, i + 6, ..."""
    for terms in _dlog_draws(rng, count):
        yield from ((sym.ctx, list(sym.entries)) for sym in terms)
    args = list(_dlog_args(rng, 9 * count))
    for k in range(count):
        start = 9 * k + k % 3
        yield args[start].ctx, args[start:9 * k + 9:3][:rng.randint(0, 3)]


def test_dlog_wedge_matches_the_wedge_route():
    b1, b2 = Context(("x",)), Context(("x", "y"))
    x, y = b2.gens()
    fixed = [(b2, [x, x * y]), (b2, [(x + 1) ** 2, x + 1]), (b2, [x + 1, (x + 1) ** 2, y]),
             (b2, [x, y, x + y]), (b1, [b1.var(0), b1.var(0) + 1]),
             (b2, [b2.rational(3), x / (y + 1)]), (b2, [(x + 1) / (y - 2), (x - 3) / (y + 4)])]
    seen = set()
    for ctx, values in fixed + list(_wedge_lists(random.Random(3636), 60)):
        got, want = dlog_wedge(ctx, values), old_dlog_wedge(ctx, values)
        assert got == want and repr(got) == repr(want), values
        seen.add(len(values))
        if len(values) > 1:
            seen.add((len(values) > ctx.r, got.is_zero()))
            seen.update(("constant" if v.num.is_ground else type(v.den) is int) for v in values)
    # every length, n > r, both verdicts below it, rational constants and both tiers
    assert seen == {0, 1, 2, 3, (True, True), (False, True), (False, False),
                    "constant", True, False}
    for route in (dlog_wedge, old_dlog_wedge):
        for values in ([x, b2.zero], [b2.zero]):
            with pytest.raises(ZeroArgument, match="^dlog\\(0\\)$"):
                route(b2, values)
        for values in ([x, b1.var(0)], [b1.var(0)]):
            with pytest.raises(ContextMismatch):
                route(b2, values)


# scalars._cofactors calls of dlog_wedge on the two wedges below: one, the
# quotient of the one dx^dy coefficient, against 12 and 7 by old_dlog_wedge.
# The second has a part, x + 2, in no term of nonzero determinant, so a
# denominator shared by every coefficient would hold it, and then the
# quotient would fall back to sympy's gcd
WEDGE_COFACTORS = [(1, 12), (1, 7)]


def test_dlog_wedge_divides_once_per_coefficient(monkeypatch):
    b2 = Context(("x", "y"))
    x, y = b2.gens()
    wedges = [[(x + 1) / (y - 2), (x - 3) / (y + 4)], [(x + 2) / (y + 1), x - 1]]
    calls, fallbacks = [], []
    cofactors, fallback = scalars._cofactors, PolyElement.cofactors
    monkeypatch.setattr(scalars, "_cofactors", lambda f, g: calls.append(f) or cofactors(f, g))
    monkeypatch.setattr(PolyElement, "cofactors",
                        lambda f, g: fallbacks.append(f) or fallback(f, g))
    for values, (new, old) in zip(wedges, WEDGE_COFACTORS):
        got = dlog_wedge(b2, values)
        assert (len(calls), len(fallbacks)) == (new, 0)
        calls.clear()
        assert old_dlog_wedge(b2, values) == got and len(calls) == old > new
        calls.clear()


def test_dlog_zero_test_edge_cases():
    b2 = Context(("x", "y"))
    x, y = b2.gens()
    assert dlog_is_zero([FieldSymbol(b2, [], 2), FieldSymbol(b2, [], -2)])
    assert not dlog_is_zero([FieldSymbol(b2, [], 2)])
    assert dlog_is_zero([FieldSymbol(b2, [x, y], Fraction(1, 2)),
                         FieldSymbol(b2, [y * 4, x / 3], Fraction(1, 2))])
    assert not dlog_is_zero([FieldSymbol(b2, [x, y], Fraction(1, 2)),
                             FieldSymbol(b2, [y, x], Fraction(1, 3))])
    with pytest.raises(ShapeError, match="^mixed shapes in one symbol sum$"):
        dlog_is_zero([FieldSymbol(b2, [x]), FieldSymbol(b2, [x, y])])


def _fail(*args):
    raise AssertionError("the polynomial step was reached")


def test_oracles_on_known_sums(monkeypatch):
    b2 = Context(("x", "y"))
    x, y = b2.gens()
    for entries in ([x, y], [x, 1 + y]):
        assert zero_by_realizations([FieldSymbol(b2, entries)]) == (
            False, {"dlog_zero": False, "var_x": False, "var_y": False})
    for entries in ([x, 1 - x], [x, x]):
        assert zero_by_realizations([FieldSymbol(b2, entries)]) == (
            True, {"dlog_zero": True, "var_x": True, "var_y": True})
    b3 = Context(("x", "y", "z"))
    x3, y3, z3 = b3.gens()
    assert zero_by_realizations([FieldSymbol(b3, [x3, y3, z3])]) == (
        False, {"dlog_zero": False, "var_x": False, "var_y": False, "var_z": False})
    diffs = []
    diff = FieldElem.diff
    monkeypatch.setattr(FieldElem, "diff", lambda a, i: diffs.append(i) or diff(a, i))
    # {x, y, x + y} has a nonzero m_K, and its dx^dy^dz coefficient is 0
    assert dlog_is_zero(FieldSymbol(b3, [x3, y3, x3 + y3])) and diffs
    # three entries over two variables: no entry is read
    monkeypatch.setattr(FieldElem, "log_parts", _fail)
    assert dlog_is_zero(FieldSymbol(b2, [x, y, x + y]))
    assert zero_by_realizations([FieldSymbol(b2, [x, y, x + y])]) == (
        True, {"dlog_zero": True, "var_x": True, "var_y": True})


# scalars._cofactors calls in the dlog zero test of one two-entry identity
# sum: none by dlog_is_zero, DLOG_COFACTORS by the wedge route it replaced
DLOG_COFACTORS = 24


def test_dlog_is_zero_makes_no_gcd(monkeypatch):
    b2 = Context(("x", "y"))
    x, y = b2.gens()
    lhs, rhs = elem_identity_instance(x, y, x + 1, y - 2)
    terms = [lhs, rhs.scale(-1)]
    calls = []
    cofactors = scalars._cofactors
    monkeypatch.setattr(scalars, "_cofactors", lambda f, g: calls.append(f) or cofactors(f, g))
    factored = _factor_list_calls(monkeypatch, x.num)
    assert dlog_is_zero(terms)
    assert (len(calls), len(factored)) == (0, 0)
    assert old_dlog_realization(terms).is_zero()
    assert (len(calls), len(factored)) == (DLOG_COFACTORS, 0)
