"""Relative Milnor K-theory: normal forms, theta, products, restriction."""

import itertools
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from sympy.polys.rings import PolyElement

from wittcycles import relmilnor, scalars, trunc
from wittcycles.errors import ContextMismatch, NoPrincipalEntry, NotAUnit
from wittcycles.forms import CanonRelForm, FormOnTrunc, dlog, reduce_mod_exact
from wittcycles.relmilnor import RelSymbol, mult_by_absolute, normal_form, theta
from wittcycles.scalars import Context, FieldElem, parse_elem
from wittcycles.trunc import TruncElem, embed_form, log_t, parse_trunc, trunc_dlog
from wittcycles.verify import Sampler


@pytest.fixture
def ctx():
    return Context(("x", "y"))


def principal(ctx, m, text):
    return parse_trunc(ctx, m, text)


def test_basic_symbol_values(ctx):
    x = ctx.var(0)
    cls = normal_form(RelSymbol([principal(ctx, 1, "1+t"),
                                 TruncElem.constant(x, 1)]))
    assert cls.comps == (dlog(x),)
    cls = normal_form(RelSymbol([principal(ctx, 2, "1-3t"),
                                 TruncElem.constant(x, 2)]))
    assert cls.comps == (dlog(x).scale(-3), dlog(x).scale(Fraction(-9, 2)))


def test_square_of_principal_vanishes(ctx):
    u = principal(ctx, 3, "1 + x*t + 2t^3")
    assert normal_form(RelSymbol([u, u])).is_zero()


def test_principal_entry_independence(ctx):
    # either principal entry may carry the log; results agree up to sign
    u = principal(ctx, 2, "1 + x*t")
    v = principal(ctx, 2, "1 - t + t^2")
    assert normal_form(RelSymbol([u, v])) == -normal_form(RelSymbol([v, u]))


def test_bilinearity(ctx):
    u = principal(ctx, 2, "1 + x*t")
    v = principal(ctx, 2, "1 + 2t")
    w = TruncElem.constant(ctx.var(1), 2)
    lhs = normal_form(RelSymbol([u * v, w]))
    rhs = normal_form([RelSymbol([u, w]), RelSymbol([v, w])])
    assert lhs == rhs


def test_no_principal_entry(ctx):
    x = ctx.var(0)
    with pytest.raises(NoPrincipalEntry):
        normal_form(RelSymbol([TruncElem.constant(x, 1),
                               TruncElem.constant(x + 1, 1)]))
    with pytest.raises(NotAUnit):
        RelSymbol([TruncElem.t(ctx, 2)])


def test_theta_values(ctx):
    x = ctx.var(0)
    sym = theta(TruncElem.t(ctx, 1), [x])
    assert sym.entries[0] == principal(ctx, 1, "1+t")
    assert sym.entries[1] == TruncElem.constant(x, 1)
    # a = 0 gives the identity symbol, class 0
    zero_sym = theta(TruncElem.zero(ctx, 2), [x])
    assert normal_form(zero_sym).is_zero()


def test_theta_roundtrip_instance(ctx):
    x, y = ctx.gens()
    a = TruncElem(ctx, 3, [ctx.zero, x, ctx.rational(2), y])
    cls = normal_form(theta(a, [y]))
    want = [dlog(y).scale(c) for c in a.comps[1:]]
    assert cls == CanonRelForm(ctx, 1, 3, want)


def test_mult_by_absolute(ctx):
    x, y = ctx.gens()
    xi = normal_form(RelSymbol([principal(ctx, 1, "1+t"),
                                TruncElem.constant(x, 1)]))
    got = mult_by_absolute([y], xi)
    assert got.comps == (dlog(x).wedge(dlog(y)),)
    via_symbol = normal_form(RelSymbol([principal(ctx, 1, "1+t"),
                                        TruncElem.constant(x, 1),
                                        TruncElem.constant(y, 1)]))
    assert got == via_symbol
    assert mult_by_absolute([ctx.rational(7)], xi).is_zero()
    assert mult_by_absolute([x], xi).is_zero()


def test_restrict_class(ctx):
    x = ctx.var(0)
    xi = normal_form(RelSymbol([principal(ctx, 2, "1-3t"),
                                TruncElem.constant(x, 2)]))
    got = xi.restrict(1)
    assert got.comps == (dlog(x).scale(-3),)
    assert xi.restrict(2) == xi


@pytest.mark.parametrize("m", [2, 3, 4])
def test_antisymmetry_in_the_last_two_entries(ctx, m):
    # v and w have nonzero t^0 differentials and nonzero dt parts, so the
    # sign of moving a 1-form past dt decides the answer
    u = principal(ctx, m, "1 + x*t + y*t^2")
    v = parse_trunc(ctx, m, "x + (1+y)*t")
    w = parse_trunc(ctx, m, "1 + y + x*t - t^2")
    xi = normal_form(RelSymbol([u, v, w]))
    assert not xi.is_zero()
    assert xi == -normal_form(RelSymbol([u, w, v]))


def test_class_group_operations(ctx):
    x = ctx.var(0)
    xi = normal_form(RelSymbol([principal(ctx, 2, "1+t"),
                                TruncElem.constant(x, 2)]))
    assert (xi - xi).is_zero()
    assert xi + xi == xi.scale(2)
    assert (-xi).scale(-1) == xi


def test_json_roundtrip(ctx):
    x = ctx.var(0)
    sym = RelSymbol([principal(ctx, 2, "1+t"), TruncElem.constant(x, 2)],
                    Fraction(3, 2))
    assert RelSymbol.from_json(ctx, sym.to_json()).entries == sym.entries
    xi = normal_form(sym)
    assert CanonRelForm.from_json(ctx, xi.to_json()) == xi
    with pytest.raises(ValueError):
        CanonRelForm.from_json(ctx, {**xi.to_json(), "degree": 3})


def old_symbol_form(sym):
    """The relative (n-1)-form log(u) dlog(rest) of one symbol, with the
    sign of moving the first principal entry to the front: the form whose
    reduction normal_form took before it read the dt part of the dlog
    wedge."""
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


def old_normal_form(syms):
    classes = [reduce_mod_exact(old_symbol_form(sym)) for sym in syms]
    total = classes[0]
    for cls in classes[1:]:
        total = total + cls
    return total


def _entry(s, m, kind):
    """A unit of F_m: principal, moving but not principal (its constant
    term is not 1), constant, or 1."""
    if kind == "principal":
        return s.principal_unit(m, light=s.rng.random() < 0.5)
    if kind == "moving":
        while True:
            u = TruncElem.constant(s.nonzero(1), m) * s.principal_unit(m, light=True)
            if not u.is_principal():
                return u
    if kind == "constant":
        return TruncElem.constant(s.nonzero(), m)
    return TruncElem.one(s.ctx, m)


def _drawn_symbols(seed, count):
    """Seeded symbol sums in 1-3 variables, n = 1..3, m = 1..5."""
    rng = random.Random(seed)
    for _ in range(count):
        ctx = Context(("x", "y", "z")[:rng.randint(1, 3)])
        s = Sampler(ctx, rng.randrange(10 ** 6))
        n, m = rng.randint(1, 3), rng.randint(1, 5)
        syms = []
        for _ in range(rng.randint(1, 3)):
            kinds = rng.choices(["principal", "moving", "constant", "one"],
                                [3, 3, 3, 1], k=n)
            if "principal" not in kinds and rng.random() < 0.9:
                kinds[rng.randrange(n)] = "principal"
            syms.append(RelSymbol([_entry(s, m, k) for k in kinds],
                                  rng.choice([1, -2, Fraction(3, 5)])))
        yield syms


def _placed_symbols():
    """Symbols in x, y at m = 3 with the constant entries, or the
    entries 1, at every position among principal and moving ones; then
    symbols at m = 8 with two moving entries in x, y and three in x, y, z,
    a constant entry between moving ones, so that the sign of each moving
    dlog's dt part is read at the benchmark's level."""
    ctx = Context(("x", "y"))
    s = Sampler(ctx, 7)
    for n in (1, 2, 3):
        for kinds in itertools.product(
                ["principal", "moving", "constant", "one"], repeat=n):
            if "principal" in kinds or "one" in kinds:
                yield [RelSymbol([_entry(s, 3, k) for k in kinds], Fraction(-3, 2))]
    for names, shapes in ((("x", "y"), [("principal", "constant", "moving"),
                                        ("moving", "constant", "principal")]),
                          (("x", "y", "z"), [("principal", "constant", "moving", "moving"),
                                             ("moving", "principal", "constant", "moving")])):
        s = Sampler(Context(names), 15)
        for kinds in shapes:
            yield [RelSymbol([_entry(s, 8, k) for k in kinds], Fraction(5, 3))]


def _same(got, want):
    assert got == want and repr(got) == repr(want)


def test_normal_form_matches_the_log_route():
    """normal_form against reduce_mod_exact(old_symbol_form(sym)): value
    and repr, or the same NoPrincipalEntry."""
    seen = set()
    for syms in list(_drawn_symbols(2701, 120)) + list(_placed_symbols()):
        try:
            want = old_normal_form(syms)
        except NoPrincipalEntry as exc:
            with pytest.raises(NoPrincipalEntry, match=re.escape(str(exc))):
                normal_form(syms)
            seen.add("no principal entry")
            continue
        _same(normal_form(syms), want)
        for sym in syms:
            moving = [u for u in sym.entries if any(u.comps[1:])]
            seen.add(("moving", min(len(moving), 2),
                      any(not u.is_principal() for u in moving)))
        seen.add(("terms", min(len(syms), 2)))
    assert seen >= {"no principal entry", ("moving", 0, False), ("moving", 1, False),
                    ("moving", 2, False), ("moving", 2, True), ("terms", 2)}


def test_symbols_without_a_moving_entry_vanish():
    ctx = Context(("x", "y"))
    x, y = ctx.gens()
    one, cx = TruncElem.one(ctx, 2), TruncElem.constant(x, 2)
    for syms in ([RelSymbol([one, cx])], [RelSymbol([cx, one])],
                 [RelSymbol([parse_trunc(ctx, 2, "x+y"), one], 2)],
                 [RelSymbol([one])], [RelSymbol([one, cx, TruncElem.constant(y, 2)], -1)]):
        got = normal_form(syms)
        assert got.is_zero() and got.level == 2
        _same(got, old_normal_form(syms))


def test_normal_form_errors():
    ctx = Context(("x",))
    x = ctx.var(0)
    u = parse_trunc(ctx, 2, "1+t")
    no_principal = RelSymbol([TruncElem.constant(x, 2), parse_trunc(ctx, 2, "2+t")])
    with pytest.raises(NoPrincipalEntry, match="^no entry in 1 \\+ t F_m$"):
        normal_form(no_principal)
    with pytest.raises(NoPrincipalEntry, match="^no entry in 1 \\+ t F_m$"):
        normal_form([RelSymbol([u, TruncElem.constant(x, 2)]), no_principal])
    for other in (RelSymbol([u]), RelSymbol([u.restrict(1), TruncElem.constant(x, 1)])):
        with pytest.raises(ValueError, match="^mixed shapes in one symbol sum$"):
            normal_form([RelSymbol([u, TruncElem.constant(x, 2)]), other])
    with pytest.raises(ValueError, match="^empty symbol sum has no context$"):
        normal_form([])
    # a sum over two contexts fails, also where the second symbol's class
    # is zero, and a symbol without a principal entry fails first
    other = Context(("x", "y"))
    for sym in (RelSymbol([TruncElem.one(other, 2), TruncElem.constant(other.var(1), 2)]),
                RelSymbol([parse_trunc(other, 2, "1+x*t"), parse_trunc(other, 2, "1+y*t")])):
        with pytest.raises(ContextMismatch, match=re.escape(
                "mixed contexts %r and %r" % (ctx, other))):
            normal_form([RelSymbol([u, TruncElem.constant(x, 2)]), sym])
    with pytest.raises(NoPrincipalEntry):
        normal_form([RelSymbol([u]), RelSymbol([TruncElem.constant(other.var(0), 2)])])


def _fixed_symbol():
    """A dense principal u at m = 8 and a constant b, the shape of the
    benchmark's {u, b} symbols."""
    ctx, m = Context(("x", "y")), 8
    u = parse_trunc(ctx, m, "1 + " + " + ".join(
        "((%d*x - 2*y + %d)/%d)*t^%d" % (i, 4 - i, i % 3 + 1, i) for i in range(1, m + 1)))
    return RelSymbol([u, TruncElem.constant(parse_elem(ctx, "(x+2)/(y-3)"), m)])


# F_m divisions and field products of normal_form on the {u, b} of the
# test below: 1 and 28, against 2 and 43 by old_normal_form's log route.
# Its derivatives are the 4 of dlog b, one per log part of b and
# variable, and no gcd falls back to sympy's
NF_QUOTIENTS, NF_PRODUCTS, NF_DIFFS, NF_FALLBACKS = 1, 28, 4, 0


def test_normal_form_cost_on_a_fixed_symbol(monkeypatch):
    """A route with more divisions, products, derivatives or sympy gcds
    fails here."""
    sym = _fixed_symbol()
    counts = Counter()
    quotient, mul, diff = trunc.series_quotient, FieldElem.__mul__, FieldElem.diff
    cofactors = PolyElement.cofactors

    def counted(a, b):
        counts["products"] += 1
        return mul(a, b)

    scalars._factors.cache_clear()
    monkeypatch.setattr(trunc, "series_quotient",
                        lambda w, v: counts.update(["quotients"]) or quotient(w, v))
    monkeypatch.setattr(FieldElem, "__mul__", counted)
    monkeypatch.setattr(FieldElem, "__rmul__", counted)
    monkeypatch.setattr(FieldElem, "diff", lambda a, i: counts.update(["diffs"]) or diff(a, i))
    monkeypatch.setattr(PolyElement, "cofactors",
                        lambda f, g: counts.update(["fallbacks"]) or cofactors(f, g))
    got = normal_form(sym)
    monkeypatch.undo()
    assert counts["quotients"] <= NF_QUOTIENTS and counts["products"] <= NF_PRODUCTS
    assert counts["diffs"] <= NF_DIFFS and counts["fallbacks"] == NF_FALLBACKS
    _same(got, old_normal_form([sym]))


def _fail(*args):
    raise AssertionError("normal_form built a dlog form over F_m")


def test_normal_form_builds_no_dlog_form_over_f_m(monkeypatch):
    """normal_form reads the dt part of the dlog wedge off the log
    derivatives, with no trunc_dlog and no wedge over F_m, for one moving
    entry and for two with a constant entry between them."""
    sym = _fixed_symbol()
    u, b = sym.entries
    v = parse_trunc(sym.ctx, 8, "x - 2 + (y + 1)*t - 3*t^4 + x*y*t^8")
    syms = [sym, RelSymbol([v, b, u], Fraction(-2, 7))]
    monkeypatch.setattr(trunc, "trunc_dlog", _fail)
    monkeypatch.setattr(relmilnor, "trunc_dlog", _fail, raising=False)
    monkeypatch.setattr(FormOnTrunc, "wedge", _fail)
    got = [normal_form(s) for s in syms]
    monkeypatch.undo()
    assert not got[1].is_zero()
    for g, s in zip(got, syms):
        _same(g, old_normal_form([s]))
