"""The failure path of the verify runner: a broken library function makes
its check report the failed sub-property, the index of the failing trial
and the witness."""

import json

import pytest

from wittcycles import addchow, milnorfield, relmilnor, verify, witt
from wittcycles.cli import main
from wittcycles.errors import NotAdmissible
from wittcycles.scalars import Context

CTX = Context(("x", "y"))


def patch(monkeypatch, module, name, fail_at=None, wrong=None):
    """Replace module.name by a function that records the arguments of
    each call and returns `wrong` on call number `fail_at`, the real
    result otherwise.  Returns (real function, recorded calls)."""
    real = getattr(module, name)
    calls = []

    def patched(*args):
        calls.append(args)
        return wrong if len(calls) == fail_at else real(*args)
    monkeypatch.setattr(module, name, patched)
    return real, calls


def test_fixed_count_check_reports_failing_trial(monkeypatch):
    # one gamma_inv call per trial; None equals no Witt vector
    real, calls = patch(monkeypatch, witt, "gamma_inv", fail_at=3)
    prop = verify.check_ghost_gamma(CTX, 101, 10)
    assert prop["name"] == "gamma-inverse" and not prop["ok"]
    assert prop["trials"] == 3 and len(calls) == 3
    assert prop["counterexample"] == repr(real(*calls[-1]))
    assert prop["elapsed_s"] >= 0


def test_passing_check_counts_every_trial():
    prop = verify.check_ghost_gamma(CTX, 101, 4)
    assert prop == {"name": "ghost-gamma-coherence", "trials": 4, "ok": True,
                    "counterexample": None, "elapsed_s": prop["elapsed_s"]}


class NoClass:
    canon = None  # compares unequal to every canonical form


def test_cell_check_counts_across_cells(monkeypatch):
    _, thetas = patch(monkeypatch, relmilnor, "theta")
    patch(monkeypatch, relmilnor, "normal_form", fail_at=5, wrong=NoClass())
    # two trials per cell: the fifth trial is the first of cell (n=1, m=3)
    prop = verify.check_theta_roundtrip(CTX, 105, 2, m_max=3)
    assert prop["name"] == "theta-roundtrip" and not prop["ok"]
    assert prop["trials"] == 5 and len(thetas) == 5
    a, bs = thetas[-1]
    assert a.level == 3 and bs == []
    assert prop["counterexample"] == repr((a, bs))


def test_retry_loop_check_counts_completed_trials(monkeypatch):
    _, instances = patch(monkeypatch, milnorfield, "elem_identity_instance")
    # with the realization test stubbed out, only a completed trial of the
    # degenerate branch calls dlog_is_zero
    _, degenerate = patch(monkeypatch, milnorfield, "dlog_is_zero")
    main_trials = []

    def zero_by_realizations(terms):
        main_trials.append(terms)
        return len(main_trials) < 4, {}
    monkeypatch.setattr(milnorfield, "zero_by_realizations", zero_by_realizations)
    prop = verify.check_elem_identity(("x", "y"), 110, 50)
    assert prop["name"] == "two-entry-identity" and not prop["ok"]
    # three main trials and the degenerate ones between them completed
    assert degenerate and prop["trials"] == 3 + len(degenerate) + 1
    assert prop["counterexample"] == repr(instances[-1])


def test_corpus_check_reports_failing_curve(monkeypatch):
    _, calls = patch(monkeypatch, addchow, "verify_boundary_vanishing",
                     fail_at=2, wrong=(False, {"sum": "1"}))
    prop = verify.check_boundary_vanishing(("x", "y"), 113, 5)
    assert prop["name"] == "boundary-vanishing" and not prop["ok"]
    assert prop["trials"] == 2 and len(calls) == 2
    curve, m = calls[-1]
    assert prop["counterexample"] == repr((curve, m, {"sum": "1"}))


def test_corpus_check_cuts_each_drawn_curve_once(monkeypatch):
    _, cuts = patch(monkeypatch, addchow, "boundary")
    _, drawn = patch(monkeypatch, addchow, "ParamCurve")
    prop = verify.check_boundary_vanishing(("x", "y"), 113, 30)
    assert prop["ok"] and prop["trials"] == 30
    # some curves were degenerate and drawn again
    assert len(drawn) > 30 and len(cuts) == len(drawn)


def test_corpus_check_redraws_only_degenerate_faces(monkeypatch):
    def inadmissible(curve, m):
        raise NotAdmissible("face point meets the divisor t = 0")
    monkeypatch.setattr(addchow, "verify_boundary_vanishing", inadmissible)
    with pytest.raises(NotAdmissible, match="meets the divisor"):
        verify.check_boundary_vanishing(("x", "y"), 113, 30)


def test_cli_verify_exits_1_with_the_failing_property(monkeypatch, capsys):
    monkeypatch.setattr(milnorfield, "zero_by_realizations",
                        lambda terms: (False, {}))
    argv = ["verify", "--suite", "rewriting", "--trials", "1", "--seed", "3"]
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and not report["ok"]
    prop = report["properties"][0]
    assert (prop["name"], prop["trials"], prop["ok"]) == ("two-entry-identity", 1, False)
    assert prop["counterexample"].startswith("(")
    code = main(argv + ["--pretty"])
    out = capsys.readouterr().out
    assert code == 1 and out.endswith("overall: FAIL\n")
    assert "FAIL  rewriting/two-entry-identity (1 trials, " in out
