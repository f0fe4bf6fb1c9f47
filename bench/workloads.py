"""The three benchmark workloads.

A workload is a seeded list of operations that one round runs.  Each
operation has a ``run`` that calls into wittcycles (the only part that is
timed) and a ``check`` that decides whether the result is right.  Checks
use sympy references computed apart from the program (reference.py) or a
property the method must have; a check returns False on a wrong result.
"""

import collections
import contextlib
import io
import json
import random
from fractions import Fraction

import reference as ref
from wittcycles import addchow, cli, verify
from wittcycles.scalars import Context

# nf-levels: every kind runs NF_COUNTS[m] times per round at level m, and
# the calls in NF_EXTRA run as many more times.  The extra nf calls at
# m = 8 put the median inside one kind of call, the extra gamma-inv calls
# at m = 24 do the same for the 90th percentile, and the cheap extras at
# m = 8 balance the calls below the median block against those above it.
NF_KINDS = ("nf2", "nf3", "cyc1", "cyc2", "ghost", "gamma", "gamma-inv",
            "drw-d", "drw-v")
NF_COUNTS = {4: 4, 8: 1, 16: 1, 24: 1, 32: 1}
NF_EXTRA = {("nf2", 8): 96, ("gamma", 8): 2, ("cyc1", 8): 2, ("ghost", 8): 2,
            ("gamma-inv", 24): 10}
DEEP_NESTING = 3000

# gate-trials: one single-trial call of each acceptance check per round,
# with the parameters of acceptance criteria 1-8.
GATE_CHECKS = (
    ("c1-ghost-gamma", lambda ctx, s: verify.check_ghost_gamma(ctx, s, 1)),
    ("c2-exp-log", lambda ctx, s: verify.check_explog(ctx, s, 1)),
    ("c3-reduce-exact",
     lambda ctx, s: verify.check_reduce_kills_exact(s, 1, r_max=3, m_max=6)),
    ("c4-nf-welldef",
     lambda ctx, s: verify.check_normal_form_welldef(ctx, s, 1, m_max=6)),
    ("c5-theta-roundtrip",
     lambda ctx, s: verify.check_theta_roundtrip(ctx, s, 1, m_max=6)),
    ("c6-cycle-dictionary", lambda ctx, s: verify.check_cycle_dictionary(ctx, s, 1)),
    ("c7-towers", lambda ctx, s: verify.check_towers(ctx, s, 1)),
    ("c8-drw-relations", lambda ctx, s: verify.check_drw_relations(ctx, s, 1)),
    ("c8-drw-vdlog", lambda ctx, s: verify.check_drw_vdlog(ctx, s, 1)),
)

# curves-reciprocity: single-trial calls of the criterion 9 and 10 checks,
# as (name, check, calls per round).  The two-entry identity, whose latency
# spreads least, holds the median and the 90th percentile; filtration
# rewriting is heavy-tailed and runs once per round.
CURVE_CHECKS = (
    ("c9-two-entry-identity",
     lambda names, s: verify.check_elem_identity(names, s, 1), 8),
    ("c9-filtration-rewriting",
     lambda names, s: verify.check_rewrite_filtration(names, s, 1), 1),
    ("c10-weil-reciprocity",
     lambda names, s: verify.check_weil_reciprocity(names, s, 1), 4),
    ("c10-boundary-vanishing",
     lambda names, s: verify.check_boundary_vanishing(names, s, 1), 2),
)


# One benchmark operation: run() is timed, check(result) is not.
Op = collections.namedtuple("Op", "kind run check")


# -- nf-levels ---------------------------------------------------------------

def _call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_op(kind, argv, check):
    def verdict(result):
        code, out, _ = result
        return code == 0 and check(json.loads(out))
    return Op(kind, lambda: _call_cli(argv), verdict)


def _nonzero(rng):
    return rng.choice((-1, 1)) * rng.randint(1, 5)


def _coefs(rng, n):
    """n integer quadruples (p, q, r, s) of a dense linear coefficient."""
    return [(_nonzero(rng), _nonzero(rng), _nonzero(rng), rng.randint(1, 3))
            for _ in range(n)]


def _units(rng, n):
    """n integer pairs (a, b) of a unit (x + a)/(y + b)."""
    return [(_nonzero(rng), _nonzero(rng)) for _ in range(n)]


def _nf_op(rng, m, entries):
    cs = _coefs(rng, m)
    bs = _units(rng, entries - 1)
    u = "1+" + "+".join("%s*t^%d" % (ref.linear_text(c), i)
                        for i, c in enumerate(cs, start=1))
    symbol = "{%s}" % ", ".join([u] + [ref.unit_text(b) for b in bs])
    argv = ["nf", "--m", str(m), "--vars", "x,y", "--symbol", symbol]

    def check(payload):
        """c_i = l_i dlog b_1 ^ .. for l = log u."""
        ell = ref.series_log([ref.R.one] + [ref.linear(c) for c in cs], m)
        w = ref.dlog(ref.unit(bs[0]))
        if entries == 3:
            w = ref.wedge11(w, ref.dlog(ref.unit(bs[1])))
        comps = payload["canon"]["comps"]
        return payload["degree"] == entries and len(comps) == m and all(
            ref.forms_equal(ref.form_from_json(c), ref.scale_form(ell[i], w))
            for i, c in enumerate(comps, start=1))
    return _cli_op("nf%d" % entries, argv, check)


def _cyc_op(rng, m, cube):
    f0 = _nonzero(rng)
    cs = _coefs(rng, m)
    bs = _units(rng, cube)
    f = "%d+" % f0 + "+".join("%s*t^%d" % (ref.linear_text(c), i)
                              for i, c in enumerate(cs, start=1))
    gen = "(%s)" % f if not bs else "(%s; %s)" % (f, ", ".join(
        ref.unit_text(b) for b in bs))
    argv = ["cyc", "--m", str(m), "--vars", "x,y", "--gen", gen]

    def check(payload):
        ctx = Context(("x", "y"))
        z = cli.parse_generator(ctx, m, gen)
        via_drw = addchow.drw_to_milnor_diagonal(addchow.cycle_to_drw(z, m))
        return payload == json.loads(json.dumps(via_drw.to_json()))
    return _cli_op("cyc%d" % (cube + 1), argv, check)


def _coords_text(polys):
    return "(" + ",".join(ref.poly_text(p) for p in polys) + ")"


def _ring_elems(elems):
    """Ring elements from field-element JSON; None if a denominator is not
    a constant."""
    out = []
    for e in elems:
        num, den = ref.elem_from_json(e)
        if not den.is_ground:
            return None
        out.append(num * (1 / den.LC))
    return out


def _witt_op(rng, m, kind):
    a = [ref.linear(c) for c in _coefs(rng, m)]
    if kind == "ghost":
        argv = ["witt", "ghost", "--m", str(m), "--vars", "x,y", _coords_text(a)]

        def check(payload):
            return _ring_elems(payload["ghost"]) == ref.ghost(a)
    elif kind == "gamma":
        argv = ["witt", "gamma", "--m", str(m), "--vars", "x,y", _coords_text(a)]

        def check(payload):
            return _ring_elems(payload["coeffs"]) == ref.gamma(a, m)
    else:
        u = ref.gamma(a, m)
        argv = ["witt", "gamma-inv", "--vars", "x,y", _coords_text(u)]

        def check(payload):
            coords = _ring_elems(payload["coords"])
            return coords is not None and len(coords) == m \
                and ref.gamma(coords, m) == u
    return _cli_op(kind, argv, check)


def _drw_op(rng, m, kind):
    a = [ref.linear(c) for c in _coefs(rng, m)]
    b = _units(rng, 1)[0]
    argv = ["drw", kind[-1], "--vars", "x,y", "--witt", _coords_text(a),
            "--bs", ref.unit_text(b)]
    if kind == "drw-v":
        argv[2:2] = ["--s", "2"]

    def check(payload):
        g = ref.ghost(a)
        w = ref.dlog(ref.unit(b))
        if kind == "drw-d":
            want = [ref.scale_form(Fraction(1, j), ref.d_of_scaled_closed(gj, w))
                    for j, gj in enumerate(g, start=1)]
        else:
            want = [ref.scale_form(2 * g[j // 2 - 1], w) if j % 2 == 0 else {}
                    for j in range(1, 2 * m + 1)]
        got = payload["ghost"]
        return len(got) == len(want) and all(
            ref.forms_equal(ref.form_from_json(x), y) for x, y in zip(got, want))
    return _cli_op(kind, argv, check)


def _deep_nesting_op():
    """A malformed symbol nested DEEP_NESTING parentheses deep must end in
    exit code 2 with a JSON error on stderr."""
    symbol = "{%s1+t%s, x}" % ("(" * DEEP_NESTING, ")" * DEEP_NESTING)
    argv = ["nf", "--m", "4", "--vars", "x,y", "--symbol", symbol]

    def check(result):
        code, out, err = result
        return code == 2 and not out and "error" in json.loads(err)
    return Op("deep-nesting", lambda: _call_cli(argv), check)


def _nf_kind_op(rng, m, kind):
    if kind in ("nf2", "nf3"):
        return _nf_op(rng, m, int(kind[-1]))
    if kind in ("cyc1", "cyc2"):
        return _cyc_op(rng, m, int(kind[-1]) - 1)
    if kind.startswith("drw"):
        return _drw_op(rng, m, kind)
    return _witt_op(rng, m, kind)


def nf_levels(rng):
    ops = []
    for m, count in NF_COUNTS.items():
        for kind in NF_KINDS:
            for _ in range(count + NF_EXTRA.get((kind, m), 0)):
                ops.append(_nf_kind_op(rng, m, kind))
    ops.append(_deep_nesting_op())
    rng.shuffle(ops)  # spread the levels over the run's time
    return ops


# -- gate-trials and curves-reciprocity --------------------------------------

def _trial_ok(result):
    return result["ok"] is True and result["trials"] >= 1


def gate_trials(rng):
    ctx = Context(("x", "y"))
    return [Op(name, lambda fn=fn, s=rng.randrange(2 ** 31): fn(ctx, s), _trial_ok)
            for name, fn in GATE_CHECKS]


def curves_reciprocity(rng):
    names = ("x", "y")
    return [Op(name, lambda fn=fn, s=rng.randrange(2 ** 31): fn(names, s), _trial_ok)
            for name, fn, count in CURVE_CHECKS for _ in range(count)]


WORKLOADS = {
    "nf-levels": nf_levels,
    "gate-trials": gate_trials,
    "curves-reciprocity": curves_reciprocity,
}


def round_ops(workload, seed, r):
    """The operations of round r, drawn from a stream of their own."""
    return WORKLOADS[workload](random.Random("%s/%d/%d" % (workload, seed, r)))
