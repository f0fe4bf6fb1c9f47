"""Additive 0-cycles: class maps, the diagonal, boundaries, modulus."""

import json
import random
from fractions import Fraction

import pytest

from wittcycles import trunc
from wittcycles.addchow import (CycleGen, ParamCurve, boundary, cyc_milnor,
                                cycle_to_drw, drw_to_milnor_diagonal,
                                milnor_to_drw_diagonal, modulus_check_curve,
                                tower_compat, verify_boundary_vanishing)
from wittcycles.drw import DRWForm, phi
from wittcycles.errors import NonRationalBoundary
from wittcycles.forms import dlog, dlog_wedge
from wittcycles.milnorfield import (FieldSymbol, dlog_is_zero, gersten_boundary,
                                    weil_reciprocity_check)
from wittcycles.relmilnor import RelSymbol, normal_form
from wittcycles.scalars import Context
from wittcycles.trunc import TruncElem, parse_trunc
from wittcycles.verify import Sampler
from wittcycles.witt import WittVector, unghost

from test_direct_reads import old_log_ghost
from test_witt import peel_gamma_inv


@pytest.fixture
def ctx():
    return Context(("x", "y"))


def test_admissibility(ctx):
    x = ctx.var(0)
    assert CycleGen([ctx.one, ctx.rational(-3)], [x]).is_admissible()
    assert not CycleGen([ctx.zero, ctx.one], [x]).is_admissible()
    assert not CycleGen([ctx.one, ctx.one], [ctx.zero]).is_admissible()


def test_degree_one_class_is_a_witt_vector(ctx):
    # (1-3t) at m=2: the class corresponds to the Witt vector (3, 0)
    z = CycleGen([ctx.one, ctx.rational(-3)], [])
    cl = cyc_milnor(z, 2)
    ghost = [cl.comps[i].coeffs.get((), ctx.zero) * (-(i + 1))
             for i in range(2)]
    assert unghost(tuple(ghost)) == WittVector(
        ctx, 2, [ctx.rational(3), ctx.zero])


# The class layout: K_2 degree, then the canonical 1-forms -3 dx/x and
# -9/2 dx/x of {1 - 3t, x} at level 2.  The cyc command and the bench
# compare it byte for byte.
CLASS_JSON = (
    '{"degree": 2, "canon": {"degree": 1, "level": 2, "comps": ['
    '[[[0], {"num": [[[0, 0], "-3/1"]], "den": [[[1, 0], "1/1"]]}]], '
    '[[[0], {"num": [[[0, 0], "-9/1"]], "den": [[[1, 0], "2/1"]]}]]]}}')


def test_class_json_layout(ctx):
    x = ctx.var(0)
    z = CycleGen([ctx.one, ctx.rational(-3)], [x])
    classes = [normal_form(RelSymbol([parse_trunc(ctx, 2, "1-3t"),
                                      TruncElem.constant(x, 2)])),
               cyc_milnor(z, 2), drw_to_milnor_diagonal(cycle_to_drw(z, 2))]
    for cl in classes:
        assert json.dumps(cl.to_json()) == CLASS_JSON
        assert type(cl).from_json(ctx, json.loads(CLASS_JSON)) == cl


def test_symbol_class_values(ctx):
    x = ctx.var(0)
    z = CycleGen([ctx.one, ctx.rational(-3)], [x])
    cl = cyc_milnor(z, 2)
    assert cl.comps == (dlog(x).scale(-3), dlog(x).scale(Fraction(-9, 2)))
    # only f(0)^(-1) f matters
    z2 = CycleGen([ctx.rational(2), ctx.rational(-6)], [x])
    assert cyc_milnor(z2, 2) == cl


def test_drw_class_and_diagonal(ctx):
    x, y = ctx.gens()
    z = CycleGen([ctx.one, ctx.rational(-3)], [x])
    om = cycle_to_drw(z, 2)
    assert om.comps == (dlog(x).scale(3), dlog(x).scale(9))
    cl = cyc_milnor(z, 2)
    assert drw_to_milnor_diagonal(om) == cl
    assert milnor_to_drw_diagonal(cl) == om
    # 1 - a t^2: image supported in component 2 with weight 2a
    a = x + y
    z3 = CycleGen([ctx.one, ctx.zero, -a], [x])
    om3 = cycle_to_drw(z3, 2)
    assert om3.comps[0].is_zero()
    assert om3.comps[1] == dlog(x).scale(2 * a)
    assert drw_to_milnor_diagonal(om3) == cyc_milnor(z3, 2)


def test_class_multiplicative_in_f(ctx):
    x, y = ctx.gens()
    a, b = x + y, y - 3
    prod = CycleGen([ctx.one, -(a + b), a * b], [x])
    s1 = CycleGen([ctx.one, -a], [x])
    s2 = CycleGen([ctx.one, -b], [x])
    assert cyc_milnor(prod, 3) == cyc_milnor([s1, s2], 3)


def test_random_route_coherence_and_towers(ctx):
    rng = random.Random(7)

    def rand_fe():
        v = ctx.rational(rng.randint(-3, 3))
        for gv in ctx.gens():
            if rng.random() < 0.5:
                v = v + ctx.rational(rng.randint(1, 2)) * gv ** rng.randint(1, 2)
        return v

    def rand_gen(n, m):
        while True:
            f = [rand_fe() for _ in range(rng.randint(1, m + 1))]
            bs = [rand_fe() for _ in range(n - 1)]
            z = CycleGen(f, bs, rng.randint(-2, 2) or 1)
            if z.is_admissible():
                return z

    for _ in range(40):
        n, m = rng.randint(1, 3), rng.randint(1, 5)
        z = rand_gen(n, m)
        assert drw_to_milnor_diagonal(cycle_to_drw(z, m)) == cyc_milnor(z, m)
        assert tower_compat(z, m + rng.randint(1, 2), m)


@pytest.fixture
def ectx():
    return Context(("x", "y", "u"))


def test_boundary_face_bookkeeping(ectx):
    x, y, u = ectx.gens()
    # g0 = x(1+u), g1 = u/(u-1): faces at u=0 (t=x, +1) and u=1 (t=2x, -1)
    curve = ParamCurve(ectx, 2, [x * (1 + u), u / (u - 1)])
    gens = boundary(curve)
    bx = gens[0].ctx.var(0)
    got = {(g.f[1], g.coef) for g in gens}
    assert (-(1 / bx), Fraction(1)) in got
    assert (-(1 / (2 * bx)), Fraction(-1)) in got


def test_boundary_of_constant_t_coordinate_cancels(ectx):
    x, y, u = ectx.gens()
    curve = ParamCurve(ectx, 2, [x + 1, u])
    gens = boundary(curve)
    assert cyc_milnor(gens, 2).is_zero()


def test_boundary_requires_rational_support(ectx):
    x, y, u = ectx.gens()
    curve = ParamCurve(ectx, 2, [x, u * u + 1])
    with pytest.raises(NonRationalBoundary):
        boundary(curve)


def test_modulus_check(ectx):
    x, y, u = ectx.gens()
    m = 3
    # t-coordinate without zeros: vacuously true
    assert modulus_check_curve(ParamCurve(ectx, 2, [ectx.rational(5), u]), m)
    assert modulus_check_curve(
        ParamCurve(ectx, 2, [u, 1 + x * u ** (m + 1)]), m)
    assert not modulus_check_curve(ParamCurve(ectx, 2, [u, 1 + x * u]), 1)


def test_vanishing_is_vacuous_without_modulus(ectx):
    x, y, u = ectx.gens()
    # zeros of the t-coordinate where no cube coordinate approaches 1:
    # the modulus gate fails, so no claim is checked
    curve = ParamCurve(ectx, 2, [1 + u * u, u / (u - 1), x])
    ok, ev = verify_boundary_vanishing(curve, 3)
    assert not ok and ev == {"modulus": False}


def test_boundary_vanishing_with_modulus(ectx):
    x, y, u = ectx.gens()
    w1 = ParamCurve(ectx, 2, [u, 1 - x * x * u * u])
    assert modulus_check_curve(w1, 1)
    ok, ev = verify_boundary_vanishing(w1, 1)
    assert ok, ev
    w2 = ParamCurve(ectx, 2, [u, 1 - x * x * u * u, 1 - y * u])
    assert modulus_check_curve(w2, 2)
    ok, ev = verify_boundary_vanishing(w2, 2)
    assert ok, ev
    assert not modulus_check_curve(w2, 3)


def test_generator_json_roundtrip(ctx):
    x = ctx.var(0)
    z = CycleGen([ctx.one, ctx.rational(-3)], [x], Fraction(2, 3))
    back = CycleGen.from_json(ctx, z.to_json())
    assert back.f == z.f and back.bs == z.bs and back.coef == z.coef


def old_cycle_to_drw(zs, m):
    """cycle_to_drw as it was: the ghost tuple of gamma_inv(unit) read off
    the log derivative, g_j = -(t u'/u)_j, wedged with the dlog(b)'s."""
    ctx, n = zs[0].ctx, zs[0].degree
    total = DRWForm.zero(ctx, n - 1, m)
    for z in zs:
        w = dlog_wedge(ctx, z.bs)
        g = old_log_ghost(z.unit(m))
        total = total + DRWForm(ctx, n - 1, m, [w.scale(gj) for gj in g]).scale(z.coef)
    return total


def test_cycle_to_drw_matches_gamma_inv_route(ctx):
    # references: phi of gamma_inv peeled by F_m divisions, and the old
    # route through the log derivative
    s = Sampler(ctx, 2024)
    for m in range(1, 13):
        n = 1 + m % 3
        zs = [s.cycle_gen(n, m) for _ in range(2 if m <= 6 else 1)]
        want = DRWForm.zero(ctx, n - 1, m)
        for z in zs:
            want = want + phi(peel_gamma_inv(z.unit(m)), z.bs).scale(z.coef)
        assert cycle_to_drw(zs, m) == want == old_cycle_to_drw(zs, m)


def test_cycle_to_drw_makes_no_division(ctx, monkeypatch):
    """The de Rham-Witt route peels the unit in place; the old route made
    one F_m division per generator."""
    calls = []
    quotient = trunc.series_quotient
    monkeypatch.setattr(trunc, "series_quotient",
                        lambda w, v: calls.append(1) or quotient(w, v))
    s = Sampler(ctx, 2828)
    for m in range(1, 7):
        for n in (1, 2, 3):
            zs = [s.cycle_gen(n, m) for _ in range(3)]
            calls.clear()
            got = cycle_to_drw(zs, m)
            assert not calls
            assert got == old_cycle_to_drw(zs, m)
            assert len(calls) == len(zs)


def test_boundary_and_gersten_boundary_share_support(ectx):
    x, y, u = ectx.gens()
    # g1 has a double root at u = 1, a simple root at u = -2 and a pole of
    # order 3 at infinity; g0 is a unit at all three points
    g0 = (u + 5) / (u + 3)
    g1 = (u - 1) ** 2 * (u + 2)
    gens = boundary(ParamCurve(ectx, 2, [g0, g1]))
    bnd = gersten_boundary(FieldSymbol(ectx, [g1]), 2)
    assert sorted(str(v) for v, _ in bnd) == ["(u = -2)", "(u = 1)", "(u = infinity)"]
    assert str(bnd[-1][0]) == "(u = infinity)"
    # one face per point, in the same order: f(t) = 1 - t / g0(point),
    # multiplicity ord(g1)
    assert len(gens) == len(bnd)
    for z, (v, parts) in zip(gens, bnd):
        assert z.f[1] == -v.ord_residue(g0)[1].inv()
        assert z.coef == v.ord(g1) == parts[0].coef


@pytest.mark.parametrize("fn, args", [
    (cyc_milnor, (2,)), (cycle_to_drw, (2,)), (gersten_boundary, (0,)),
    (weil_reciprocity_check, (0,)), (normal_form, ()), (dlog_is_zero, ()),
], ids=["cyc_milnor", "cycle_to_drw", "gersten_boundary", "weil_reciprocity_check",
        "normal_form", "dlog_is_zero"])
def test_empty_sums_raise_value_error(fn, args):
    """An empty cycle or symbol sum has no context to work in."""
    with pytest.raises(ValueError, match="^empty (cycle|symbol) sum has no context$"):
        fn([], *args)
