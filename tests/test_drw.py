"""De Rham-Witt forms in ghost coordinates: operators and relations."""

from fractions import Fraction

import pytest

from wittcycles.drw import DRWForm, drw_F, drw_V, drw_d, from_witt, phi, teich_dlog
from wittcycles.errors import ZeroArgument
from wittcycles.forms import CanonRelForm, DiffForm, FormOnTrunc, dlog
from wittcycles.scalars import Context
from wittcycles.trunc import TruncElem
from wittcycles.witt import WittVector, teichmuller, verschiebung


@pytest.fixture
def ctx():
    return Context(("x", "y"))


def test_d_of_teichmuller(ctx):
    # d[a] has ghost components a^(j-1) da
    a = ctx.var(0)
    got = drw_d(from_witt(teichmuller(a, 3)))
    want = [DiffForm(ctx, 1, {(0,): a ** (j - 1)}) for j in range(1, 4)]
    assert got.comps == tuple(want)


def test_wedge_square_of_dlog_vanishes(ctx):
    b = ctx.var(0) + 1
    w = teich_dlog(b, 3)
    assert (w * w).is_zero()


def test_restrict(ctx):
    comps = [dlog(ctx.var(0)).scale(j) for j in range(1, 5)]
    a = DRWForm(ctx, 1, 4, comps)
    assert a.restrict(2).comps == tuple(comps[:2])


def test_frobenius_of_d_teichmuller(ctx):
    # F_s d[a] has ghost components a^(sj-1) da
    a = ctx.var(0)
    s = 2
    got = drw_F(s, drw_d(from_witt(teichmuller(a, 4))))
    want = [DiffForm(ctx, 1, {(0,): a ** (s * j - 1)}) for j in range(1, 3)]
    assert got.comps == tuple(want)


def test_verschiebung_of_dlog_multiple(ctx):
    a, b = ctx.gens()
    alpha = phi(teichmuller(a, 1), [b])
    got = drw_V(2, alpha, 2)
    assert got.comps[0].is_zero()
    assert got.comps[1] == dlog(b).scale(2 * a)


def test_v_and_f_refuse_indices_below_one(ctx):
    # the CLI refuses --s below 1 before it builds a form
    alpha = teich_dlog(ctx.var(0), 2)
    for s in (0, -2):
        with pytest.raises(ValueError, match="^s must be >= 1$"):
            drw_V(s, alpha, 2)
        with pytest.raises(ValueError, match="^s must be >= 1$"):
            drw_F(s, alpha)


def test_teich_dlog_values(ctx):
    x = ctx.var(0)
    assert teich_dlog(x, 3).comps == (dlog(x),) * 3
    assert teich_dlog(ctx.rational(5), 3).is_zero()
    with pytest.raises(ZeroArgument, match=r"^teich_dlog\(0\)$"):
        teich_dlog(ctx.zero, 3)


def test_phi_values(ctx):
    x = ctx.var(0)
    a = WittVector(ctx, 2, [ctx.rational(3), ctx.zero])
    got = phi(a, [x])
    assert got.comps == (dlog(x).scale(3), dlog(x).scale(9))
    assert phi(a, [ctx.rational(2)]).is_zero()


def test_v_dlog_identity_instances(ctx):
    a2 = WittVector(ctx, 2, [ctx.var(0), ctx.rational(2)])
    a3 = WittVector(ctx, 2, [ctx.var(1) + 1, ctx.var(0)])
    a4 = WittVector(ctx, 3, [ctx.var(0), ctx.one, ctx.var(1)])
    bs = [ctx.var(0), ctx.var(1) + 3]
    # V_s(a dlog-terms) = V_s(a) dlog-terms
    for a, terms, s, level in [(a2, bs, 2, 4), (a3, bs[:1], 3, 6), (a4, bs, 2, 6)]:
        assert drw_V(s, phi(a, terms), level) == phi(verschiebung(s, a, level), terms)


def test_fdv_and_projection(ctx):
    x, y = ctx.gens()
    al = DRWForm(ctx, 1, 2, [dlog(x), dlog(x + y)])
    be = DRWForm(ctx, 1, 4, [dlog(y).scale(j) for j in range(1, 5)])
    x0 = DRWForm(ctx, 0, 2, [DiffForm.scalar(x), DiffForm.scalar(y)])
    assert drw_F(2, drw_d(drw_V(2, al, 4))) == drw_d(al)
    assert drw_V(2, x0 * drw_F(2, be), 4) == drw_V(2, x0, 4) * be


def test_leibniz_instance(ctx):
    x, y = ctx.gens()
    ga = DRWForm(ctx, 1, 2, [dlog(x), dlog(y)])
    be = DRWForm(ctx, 0, 2, [DiffForm.scalar(x * y), DiffForm.scalar(x + y)])
    lhs = drw_d(ga * be)
    rhs = drw_d(ga) * be + (ga * drw_d(be)).scale(-1)
    assert lhs == rhs


def test_restriction_kernel_is_v_image(ctx):
    # tuples supported only in the top component
    x = ctx.var(0)
    m = 2
    top = dlog(x)
    ker = DRWForm(ctx, 1, m + 1, [DiffForm.zero(ctx, 1)] * m + [top])
    assert ker.restrict(m).is_zero()
    preimage = DRWForm(ctx, 1, 1, [top.scale(Fraction(1, m + 1))])
    assert drw_V(m + 1, preimage, m + 1) == ker


def test_degree0_matches_witt_verschiebung(ctx):
    a = WittVector(ctx, 2, [ctx.var(0), ctx.var(1)])
    lhs = drw_V(3, from_witt(a), 6)
    rhs = from_witt(verschiebung(3, a, 6))
    assert lhs == rhs


def test_json_roundtrip(ctx):
    a = phi(WittVector(ctx, 2, [ctx.var(0), ctx.one]), [ctx.var(1)])
    assert DRWForm.from_json(ctx, a.to_json()) == a


def _level_tuple(ctx, cls):
    """An instance of cls at level 2, the rest of its shape (the arguments
    that zero takes), the arguments that rebuild it from that shape, and
    its component list read back from its JSON."""
    x, y = ctx.gens()
    forms = [dlog(x), dlog(x + y)]
    if cls is TruncElem:
        a = TruncElem(ctx, 2, [ctx.one, x, y])
        return a, (2,), (a.comps,), a.to_json()["coeffs"]
    if cls is WittVector:
        a = WittVector(ctx, 2, [x, y])
        return a, (2,), (a.comps,), a.to_json()["coords"]
    if cls is FormOnTrunc:
        a = FormOnTrunc.of(ctx, 1, 2, [DiffForm.zero(ctx, 1)] + forms,
                           [DiffForm.scalar(x), DiffForm.scalar(y)])
        data = a.to_json()
        return a, (1, 2), (a.comps,), data["tparts"] + data["dt"]
    a = cls(ctx, 1, 2, forms)
    data = a.to_json()
    listed = data["ghost"] if cls is DRWForm else data["canon"]["comps"]
    return a, (1, 2), (a.comps,), listed


@pytest.mark.parametrize("cls", [TruncElem, WittVector, DRWForm, CanonRelForm, FormOnTrunc],
                         ids=lambda cls: cls.__name__)
def test_form_tuples_keep_their_type(ctx, cls):
    """Sums, differences, negatives, restrictions and zeros keep the type;
    equality and hashing read the type, level and components; JSON round
    trips under each type's key."""
    a, shape, parts, listed = _level_tuple(ctx, cls)
    zero = cls.zero(ctx, *shape)
    for b in (a + a, -a, a - a, a.restrict(1), zero):
        assert type(b) is cls
    assert (a - a).is_zero() and a - a == zero and a.restrict(2) == a
    assert a.restrict(1).level == 1 and a.restrict(1) != a
    twin = type("Twin", (cls,), {"__slots__": ()})(ctx, *shape, *parts)
    assert twin.comps == a.comps and twin != a and a != twin
    same = cls(ctx, *shape, *parts)
    assert same == a and hash(same) == hash(a) and len({a, same, zero}) == 2
    assert cls.from_json(ctx, a.to_json()) == a
    assert len(listed) == len(a.comps)


def test_forms_over_trunc_interleave_their_parts(ctx):
    """comps = (omega_0, eta_0, omega_1, ..., eta_(m-1), omega_m); a
    restriction keeps the parts of t-degree at most its level."""
    a, *_ = _level_tuple(ctx, FormOnTrunc)
    omega, eta = a.tparts, a.dt
    assert a.comps == (omega[0], eta[0], omega[1], eta[1], omega[2])
    low = a.restrict(1)
    assert (low.tparts, low.dt, low.degree) == (omega[:2], eta[:1], 1)
    assert FormOnTrunc.zero(ctx, 1, 2) == FormOnTrunc.of(ctx, 1, 2)
    assert (a + a).dt == tuple(w.scale(2) for w in eta) and a.scale(2) == a + a
    with pytest.raises(ValueError):
        a + FormOnTrunc.zero(ctx, 2, 2)
    with pytest.raises(TypeError):
        a.wedge(CanonRelForm(ctx, 1, 2, omega[1:]))


def test_drw_and_canonical_forms_differ_by_type(ctx):
    x, y = ctx.gens()
    comps = [dlog(x), dlog(x + y)]
    om = DRWForm(ctx, 1, 2, comps)
    c = CanonRelForm(ctx, 1, 2, comps)
    assert om.comps == c.comps
    assert om != c and c != om
    for a in (om, c):
        assert type(a.scale(3)) is type(a)
    with pytest.raises(TypeError):
        om + c
    assert "ghost" in om.to_json() and "comps" in c.to_json()["canon"]
    assert repr(om).startswith("DRW(") and repr(c).startswith("(")
