"""The argument guards of the public API, one row each: the call, the
typed error it raises and its message.  In the arithmetic rows an
operand of an unknown type gets NotImplemented back, so Python raises
its own TypeError, with the operands in the order written.  Three rows
are values that no other test reads: a reflected subtraction, a repr and
a suite's default trial counts."""

import pytest

from wittcycles import verify
from wittcycles.addchow import CycleGen, ParamCurve, boundary, cyc_milnor, tower_compat
from wittcycles.errors import (HypothesisViolated, NotAdmissible, ParseError,
                               ZeroArgument, ZeroEntry)
from wittcycles.forms import dlog
from wittcycles.milnorfield import (FieldSymbol, Valuation, rewrite_filtration,
                                    weil_reciprocity_check)
from wittcycles.relmilnor import RelSymbol, normal_form
from wittcycles.scalars import Context
from wittcycles.trunc import TruncElem

CTX = Context(("x", "u"))
X, U = CTX.gens()
U2 = TruncElem(CTX, 2, [CTX.one, X, CTX.one])
U3 = TruncElem(CTX, 3, [CTX.one, X, CTX.one, CTX.zero])
PI_CTX = Context(("x", "pi"))


def unsupported(op, left):
    return "unsupported operand type(s) for %s: '%s' and 'float'" % (op, left)


GUARDS = [
    # (id, call, error type or None for a value, message or value)
    ("cycle-gen-empty-f", lambda: CycleGen([], []),
     ValueError, "f needs at least the constant coefficient"),
    ("tower-levels-out-of-order", lambda: tower_compat([CycleGen([CTX.one], [])], 2, 3),
     ValueError, "levels out of order"),
    ("curve-without-cube-coordinate", lambda: ParamCurve(CTX, 1, [U]),
     ValueError, "need g_0 and at least one cube coordinate"),
    ("curve-zero-coordinate", lambda: ParamCurve(CTX, 1, [U, CTX.zero]),
     ValueError, "coordinates must be nonzero functions"),
    ("boundary-face-meets-t-0", lambda: boundary(ParamCurve(CTX, 1, [U, U])),
     NotAdmissible, "face point meets the divisor t = 0 at (u = 0)"),
    ("dlog-of-zero", lambda: dlog(CTX.zero), ZeroArgument, "dlog(0)"),
    ("field-symbol-zero-entry", lambda: FieldSymbol(CTX, [X, CTX.zero]),
     ZeroEntry, "symbol entry is zero"),
    ("valuation-of-zero", lambda: Valuation.finite(CTX, 1, CTX.drop(1).zero).ord(CTX.zero),
     ZeroEntry, "valuation of zero"),
    ("rewriting-level-below-1", lambda: rewrite_filtration(FieldSymbol(PI_CTX, []), 0, 1),
     HypothesisViolated, "filtration level m = 0 < 1"),
    ("rel-symbol-empty", lambda: RelSymbol([]),
     ValueError, "a symbol needs at least one entry"),
    ("rel-symbol-mixed-levels", lambda: RelSymbol([U2, U3]),
     ValueError, "mixed levels in one symbol"),
    ("rel-symbol-repr", lambda: repr(RelSymbol([U2], -2)),
     None, "-2*{(1) + (x)*t + (1)*t^2}"),
    ("normal-form-empty-sum", lambda: normal_form([]),
     ValueError, "empty symbol sum has no context"),
    ("weil-reciprocity-empty-sum", lambda: weil_reciprocity_check([], 1),
     ValueError, "empty symbol sum has no context"),
    ("cyc-milnor-empty-sum", lambda: cyc_milnor([], 2),
     ValueError, "empty cycle sum has no context"),
    ("from-terms-monomial-width", lambda: CTX.from_terms([((1,), 1)]),
     ParseError, "monomial (1,) does not fit Context(x, u)"),
    ("diff-index-out-of-range", lambda: X.diff(2),
     IndexError, "variable index 2 out of range"),
    ("field-add-float", lambda: X + 0.5, TypeError, unsupported("+", "FieldElem")),
    ("field-sub-float", lambda: X - 0.5, TypeError, unsupported("-", "FieldElem")),
    ("field-mul-float", lambda: X * 0.5, TypeError, unsupported("*", "FieldElem")),
    ("field-div-float", lambda: X / 0.5, TypeError, unsupported("/", "FieldElem")),
    ("field-pow-float", lambda: X ** 0.5, TypeError, unsupported("** or pow()", "FieldElem")),
    ("field-rsub-float", lambda: 0.5 - X, TypeError,
     "unsupported operand type(s) for -: 'float' and 'FieldElem'"),
    ("field-rtruediv-float", lambda: 0.5 / X, TypeError,
     "unsupported operand type(s) for /: 'float' and 'FieldElem'"),
    ("trunc-pow-float", lambda: U2 ** 0.5, TypeError, unsupported("** or pow()", "TruncElem")),
    ("trunc-rsub-float", lambda: 0.5 - U2, TypeError, "cannot combine TruncElem with float"),
    ("trunc-one-minus", lambda: str(1 - U2), None, "(-x)*t + (-1)*t^2"),
    ("suite-zero-trials", lambda: verify.run_suite("witt", trials=0),
     ParseError, "trials must be at least 1, got 0"),
    ("suite-unknown", lambda: verify.run_suite("nope"),
     ValueError, "unknown suite 'nope'"),
    ("suite-default-trials",
     lambda: [p["trials"] for p in verify.run_suite("reciprocity", seed=1)["properties"]],
     None, [50, 25]),
]


@pytest.mark.parametrize("call, error, expected", [row[1:] for row in GUARDS],
                         ids=[row[0] for row in GUARDS])
def test_guard_table(call, error, expected):
    if error is None:
        assert call() == expected
        return
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == expected
