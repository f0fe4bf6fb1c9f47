"""Truncated polynomial ring arithmetic and exp/log/dlog."""

import random
from fractions import Fraction

import pytest

from wittcycles import trunc
from wittcycles.errors import BadConstantTerm, NotAUnit, ParseError
from wittcycles.forms import DiffForm
from wittcycles.scalars import Context, FieldElem
from wittcycles.trunc import (TruncElem, dlog_split, embed_form, exp_t, log_t,
                              parse_trunc, trunc_dlog)


@pytest.fixture
def ctx():
    return Context(("x",))


def test_geometric_inverse(ctx):
    m = 4
    u = TruncElem.one(ctx, m) + TruncElem.t(ctx, m)
    inv = TruncElem(ctx, m, [ctx.rational((-1) ** i) for i in range(m + 1)])
    assert u.inv() == inv
    assert u * inv == TruncElem.one(ctx, m)


def test_restrict(ctx):
    u = TruncElem(ctx, 3, [ctx.one, ctx.one, ctx.zero, ctx.one])  # 1 + t + t^3
    assert u.restrict(2) == TruncElem(ctx, 2, [ctx.one, ctx.one, ctx.zero])


def test_nilpotency(ctx):
    m = 3
    t = TruncElem.t(ctx, m)
    assert (t * t ** m).is_zero()


def test_exp_log_examples(ctx):
    t1 = TruncElem.t(ctx, 1)
    assert exp_t(t1) == TruncElem.one(ctx, 1) + t1
    u = TruncElem.one(ctx, 3) + TruncElem.t(ctx, 3)
    assert log_t(u) == TruncElem(
        ctx, 3, [ctx.zero, ctx.one, ctx.rational(-1, 2), ctx.rational(1, 3)])
    # roundtrip on 1 - 3t + x t^2
    x = ctx.var(0)
    v = TruncElem(ctx, 2, [ctx.one, ctx.rational(-3), x])
    assert exp_t(log_t(v)) == v


def test_exp_log_preconditions(ctx):
    with pytest.raises(BadConstantTerm):
        exp_t(TruncElem.one(ctx, 2))
    with pytest.raises(BadConstantTerm):
        log_t(TruncElem.t(ctx, 2))


def test_trunc_dlog_constant_entry(ctx):
    x = ctx.var(0)
    f = trunc_dlog(TruncElem.constant(x, 2))
    assert f.tparts[0] == DiffForm(ctx, 1, {(0,): 1 / x})
    assert all(w.is_zero() for w in f.tparts[1:]) and all(w.is_zero() for w in f.dt)


def test_trunc_dlog_principal_unit(ctx):
    # dlog(1+t) at m=2 is (1 - t) dt
    f = trunc_dlog(TruncElem.one(ctx, 2) + TruncElem.t(ctx, 2))
    assert all(w.is_zero() for w in f.tparts)
    assert f.dt[0] == DiffForm.scalar(ctx.one)
    assert f.dt[1] == DiffForm.scalar(ctx.rational(-1))


def test_trunc_dlog_multiplicative(ctx):
    x = ctx.var(0)
    u = TruncElem(ctx, 3, [ctx.one, x, ctx.zero, ctx.rational(2)])
    v = TruncElem(ctx, 3, [x + 1, ctx.one, ctx.zero, ctx.zero])
    lhs = trunc_dlog(u * v)
    rhs = trunc_dlog(u) + trunc_dlog(v)
    assert lhs == rhs


def test_trunc_d_leibniz(ctx):
    x = ctx.var(0)
    a = TruncElem(ctx, 2, [x, ctx.one, x * x])
    b = TruncElem(ctx, 2, [ctx.one, x, ctx.zero])
    lhs = embed_form(a * b).d()
    rhs = embed_form(a).d().wedge(embed_form(b)) + embed_form(a).wedge(embed_form(b).d())
    assert lhs == rhs


def test_non_unit_dlog(ctx):
    for call in (trunc_dlog, lambda u: dlog_split(u, 0), lambda u: dlog_split(u, 3)):
        with pytest.raises(NotAUnit, match="^dlog of a non-unit$"):
            call(TruncElem.t(ctx, 2))


def _fail(*args):
    raise AssertionError("dlog_split took a derivative with no t-part asked for")


def test_dlog_split_without_t_parts_takes_no_derivative(monkeypatch):
    """With n = 0 the split reads only the dt parts: no dlog of u_0 and no
    derivative of any L_k / k."""
    ctx = Context(("x", "y"))
    u = parse_trunc(ctx, 4, "(x + 2)/(y - 1) + x*t - (y/3)*t^2 + (x - y)*t^4")
    monkeypatch.setattr(trunc, "dlog", _fail)
    monkeypatch.setattr(FieldElem, "diff", _fail)
    tparts, dt = dlog_split(u, 0)
    monkeypatch.undo()
    assert tparts == [] and tuple(dt) == trunc_dlog(u).dt


def test_parse_trunc(ctx):
    x = ctx.var(0)
    u = parse_trunc(ctx, 2, "1 - 3t + x*t^2")
    assert u == TruncElem(ctx, 2, [ctx.one, ctx.rational(-3), x])
    # t-degrees above the level are dropped
    assert parse_trunc(ctx, 1, "1 + t^5") == TruncElem.one(ctx, 1)
    # denominators must be t-free
    assert parse_trunc(ctx, 2, "(1+t)/x") == TruncElem(
        ctx, 2, [1 / x, 1 / x, ctx.zero])
    with pytest.raises(ParseError):
        parse_trunc(ctx, 2, "1/(1+t)")


def test_json_roundtrip(ctx):
    x = ctx.var(0)
    u = TruncElem(ctx, 2, [x, ctx.one, x / (x + 1)])
    assert TruncElem.from_json(ctx, u.to_json()) == u


# -- differential test: the O(m^2) recurrences against the series ---------

def _exp_by_series(a):
    """sum_k a^k / k!, the definition, with every power by convolution."""
    result = power = TruncElem.one(a.ctx, a.level)
    fact = 1
    for k in range(1, a.level + 1):
        power = power * a
        fact *= k
        result = result + power * Fraction(1, fact)
    return result


def _log_by_series(u):
    """sum_k (-1)^(k+1) (u-1)^k / k, the definition."""
    x = u - 1
    result = TruncElem.zero(u.ctx, u.level)
    power = TruncElem.one(u.ctx, u.level)
    for k in range(1, u.level + 1):
        power = power * x
        result = result + power * Fraction((-1) ** (k + 1), k)
    return result


def _dense(ctx, m, rng, c0):
    """c0 + sum_(i=1..m) c_i t^i with every c_i nonzero: a rational
    constant plus a rational multiple of x, and a 1/(x+i) term at odd i."""
    x = ctx.var(0)
    coeffs = [c0]
    for i in range(1, m + 1):
        c = (Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
             + Fraction(rng.randint(-5, 5), rng.randint(1, 4)) * x)
        if i % 2:
            c = c + 1 / (x + i)
        coeffs.append(c)
    return TruncElem(ctx, m, coeffs)


@pytest.mark.parametrize("m", range(1, 9))
def test_exp_log_recurrences_equal_series(ctx, m):
    rng = random.Random(1906 + m)
    a = _dense(ctx, m, rng, ctx.zero)
    u = _dense(ctx, m, rng, ctx.one)
    assert exp_t(a) == _exp_by_series(a)
    assert log_t(u) == _log_by_series(u)
