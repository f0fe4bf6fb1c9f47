"""Command-line interface: parsing, outputs, exit codes."""

import io
import json
import re
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from wittcycles import cli
from wittcycles.cli import main
from wittcycles.scalars import FieldElem


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nf_symbol(capsys):
    code, out, _ = run(capsys, "nf", "--m", "1", "--vars", "x",
                       "--symbol", "{1+t, x}")
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 2 and data["canon"]["level"] == 1
    # the single component is dx/x
    assert data["canon"]["comps"][0] == [[[0], {"num": [[[0], "1/1"]],
                                                "den": [[[1], "1/1"]]}]]


def test_nf_exact_symbol_is_zero(capsys):
    code, out, _ = run(capsys, "nf", "--symbol", "{1+t,1+t}")
    assert code == 0
    data = json.loads(out)
    assert data["canon"]["comps"] == [[]]


def test_nf_symbol_sum_and_coefficients(capsys):
    code, out, _ = run(capsys, "nf", "--m", "1", "--vars", "x",
                       "--symbol", "{1+t, x}", "--symbol", "-1*{1+t, x}")
    assert code == 0
    assert json.loads(out)["canon"]["comps"] == [[]]
    # z-coefficients reject fractions
    code, _, err = run(capsys, "nf", "--coeff", "z", "--vars", "x",
                       "--symbol", "1/2*{1+t, x}")
    assert code == 2 and "error" in json.loads(err)


def test_malformed_input_exits_2(capsys):
    code, _, err = run(capsys, "nf", "--symbol", "{1+t")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "ParseError"


def test_cyc_generator(capsys):
    code, out, _ = run(capsys, "cyc", "--m", "2", "--vars", "x",
                       "--gen", "(1-3t; x)", "--pretty")
    assert code == 0
    assert "(-3/x)*dx" in out and "(-9/(2*x))*dx" in out


def test_cyc_checks_the_degree_against_n(capsys):
    argv = ["cyc", "--m", "2", "--vars", "x", "--gen", "(1-3t; x)"]
    code, out, err = run(capsys, *argv, "--n", "3")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "type": "ParseError", "message": "symbol degree 2 does not match --n 3"}
    _, plain, _ = run(capsys, *argv)
    code, out, _ = run(capsys, *argv, "--n", "2")
    assert code == 0 and out == plain and json.loads(out)["degree"] == 2


def test_witt_ops(capsys):
    code, out, _ = run(capsys, "witt", "ghost", "--m", "2", "(3,0)")
    assert code == 0
    ghost = json.loads(out)["ghost"]
    assert ghost[0]["num"] == [[[0], "3/1"]]
    assert ghost[1]["num"] == [[[0], "9/1"]]
    code, out, _ = run(capsys, "witt", "add", "--m", "2", "--vars", "a,b",
                       "(a,0)", "(b,0)", "--pretty")
    assert code == 0
    assert out.strip() == "W(a + b, -a*b)"


def test_drw_phi(capsys):
    code, out, _ = run(capsys, "drw", "phi", "--vars", "x",
                       "--witt", "(3,0)", "--bs", "x", "--pretty")
    assert code == 0
    assert out.strip() == "DRW((3/x)*dx; (9/x)*dx)"


def test_verify_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "drw", "--trials", "5",
                       "--seed", "42")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["suite"] == "drw"
    for prop in report["properties"]:
        assert prop["counterexample"] is None


def test_verify_is_deterministic(capsys):
    _, out1, _ = run(capsys, "verify", "--suite", "witt", "--trials", "5",
                     "--seed", "9")
    _, out2, _ = run(capsys, "verify", "--suite", "witt", "--trials", "5",
                     "--seed", "9")
    r1, r2 = json.loads(out1), json.loads(out2)
    for r in (r1, r2):
        r.pop("elapsed_s")
        for prop in r["properties"]:
            assert prop.pop("elapsed_s") >= 0
    assert r1 == r2


def test_one_parser_serves_every_call(capsys):
    assert cli.build_parser() is cli.build_parser()
    # the appended --symbol list of one call does not leak into the next
    one = ("nf", "--m", "2", "--vars", "x", "--symbol", "{1+t, x}")
    before = run(capsys, *one)
    two = run(capsys, *one, "--symbol", "{1-x*t, x}")
    assert two[0] == 0 and two[1] != before[1]
    assert run(capsys, *one) == before


def test_deep_nesting_exits_2(capsys):
    deep = "(" * 3000 + "1+t" + ")" * 3000
    code, out, err = run(capsys, "nf", "--m", "4", "--vars", "x,y",
                         "--symbol", "{%s, x}" % deep)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "ParseError"


def test_nesting_100_deep_parses(capsys):
    nested = "(" * 100 + "1+t" + ")" * 100
    code, out, _ = run(capsys, "nf", "--m", "1", "--vars", "x",
                       "--symbol", "{%s, x}" % nested)
    _, flat, _ = run(capsys, "nf", "--m", "1", "--vars", "x", "--symbol", "{1+t, x}")
    assert code == 0 and out == flat


@pytest.mark.parametrize("argv", [
    ["drw", "phi", "--vars", "x", "--witt", "(3,0)", "--bs", "x", "--n", "5"],
    ["drw", "phi", "--vars", "x", "--witt", "(3,0)", "--bs", "x", "--coeff", "z"],
    ["witt", "ghost", "--m", "2", "--n", "1", "(3,0)"],
    ["witt", "ghost", "--m", "2", "--coeff", "q", "(3,0)"],
])
def test_witt_and_drw_take_no_class_options(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "ParseError"
    unknown, = {"--n", "--coeff"} & set(argv)
    assert error["message"].startswith("unrecognized arguments: " + unknown)


# An option value of "--" is refused, spaced or joined; argparse would strip
# it to an empty list.
_DOUBLE_DASH = [
    (["nf", "--symbol", "--"], "--symbol"),
    (["nf", "--symbol=--"], "--symbol"),
    (["nf", "--vars", "--", "--symbol", "{1+t,x}"], "--vars"),
    (["nf", "--vars=--", "--symbol", "{1+t,x}"], "--vars"),
    (["cyc", "--vars", "--", "--gen", "(1-t;x)"], "--vars"),
    (["witt", "ghost", "--vars", "--", "(1)"], "--vars"),
    (["drw", "phi", "--vars=--", "--witt", "(1)"], "--vars"),
    (["verify", "--vars", "--"], "--vars"),
    (["witt", "ghost", "--m", "--", "(1)"], "--m"),
    (["verify", "--suite", "--"], "--suite"),
    (["drw", "phi", "--witt", "(1)", "--bs", "--"], "--bs"),
    (["nf", "--symbol", "{1+t,x}", "--coeff", "--"], "--coeff"),
]


@pytest.mark.parametrize("argv, message", [
    (["nf", "--vars", "x", "--symbol", "{1+t, x}", "--bogus"],
     "unrecognized arguments: --bogus"),
    (["nf", "--vars", "x"], "the following arguments are required: --symbol"),
    (["nf", "--m", "x", "--symbol", "{1+t, x}"], "argument --m: invalid int value: 'x'"),
    (["nf", "--symbol", "--pretty"], "argument --symbol: expected one argument"),
    (["drw", "phi", "--witt", "(1)", "--bs", "--m", "1"],
     "argument --bs: expected one argument"),
    ([], "the following arguments are required: command"),
] + [(argv, "argument %s: expected one argument" % option) for argv, option in _DOUBLE_DASH])
def test_argparse_errors_exit_2_with_json(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {"type": "ParseError", "message": message}


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nf", "--help"])
    assert exc.value.code == 0
    assert "--symbol SYMBOL" in capsys.readouterr().out


@pytest.mark.parametrize("spaced, joined, code", [
    (["nf", "--vars", "x", "--symbol", "-2*{1+t,x}"],
     ["nf", "--vars", "x", "--symbol=-2*{1+t,x}"], 0),
    (["drw", "phi", "--vars", "x,y", "--witt", "(1)", "--bs", "-x*y"],
     ["drw", "phi", "--vars", "x,y", "--witt", "(1)", "--bs=-x*y"], 0),
    (["cyc", "--vars", "x", "--gen", "-2*(1-3t;x)", "--pretty"],
     ["cyc", "--vars", "x", "--gen=-2*(1-3t;x)", "--pretty"], 0),
    # every value is taken; --m -1 then fails the level check, not argparse
    (["nf", "--vars", "x", "--symbol", "{1+t,x}", "--symbol", "-1*{1+t,x}", "--m", "-1"],
     ["nf", "--vars", "x", "--symbol={1+t,x}", "--symbol=-1*{1+t,x}", "--m=-1"], 2),
    # an option named by a unique prefix, as argparse reads it
    (["nf", "--vars", "x", "--sym", "-2*{1+t,x}"],
     ["nf", "--vars", "x", "--symbol=-2*{1+t,x}"], 0),
    (["drw", "phi", "--vars", "x,y", "--witt", "(1)", "--b", "-x*y"],
     ["drw", "phi", "--vars", "x,y", "--witt", "(1)", "--bs=-x*y"], 0),
    (["nf", "--va", "x", "--sym", "{1+t,x}", "--pre"],
     ["nf", "--vars=x", "--symbol={1+t,x}", "--pretty"], 0),
    # a "--" that follows no option ends the options
    (["witt", "ghost", "--", "(1)"], ["witt", "ghost", "(1)"], 0),
])
def test_option_values_may_start_with_a_dash(capsys, spaced, joined, code):
    got = run(capsys, *spaced)
    assert got == run(capsys, *joined)
    assert got[0] == code
    if code:
        assert json.loads(got[2])["error"]["message"] == "level must be >= 1"
    else:
        assert got[1]


@pytest.mark.parametrize("argv, message", [
    # --s could be --suite or --seed
    (["verify", "--s", "-1"], "ambiguous option: --s could match --suite, --seed"),
    # a unique prefix of an option is an option, not a value
    (["nf", "--symbol", "--pre"], "argument --symbol: expected one argument"),
])
def test_abbreviations_resolve_as_in_argparse(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {"type": "ParseError", "message": message}


def test_zero_denominator_coefficient_exits_2(capsys):
    for argv in (["nf", "--vars", "x", "--symbol", "1/0*{1+t, x}"],
                 ["cyc", "--vars", "x", "--gen", "1/0*(1-3t; x)"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ParseError", "message": "coefficient 1/0 has denominator 0"}


@pytest.mark.parametrize("subop, tuples, want", [
    ("add", ["(1,2)"], "witt add takes 2 tuples, got 1"),
    ("mul", ["(1,2)", "(3,4)", "(5,6)"], "witt mul takes 2 tuples, got 3"),
    ("ghost", ["(1,2)", "(3,4)"], "witt ghost takes 1 tuple, got 2"),
    ("gamma-inv", ["(1,2)", "(3,4)"], "witt gamma-inv takes 1 tuple, got 2"),
])
def test_witt_tuple_count(capsys, subop, tuples, want):
    code, out, err = run(capsys, "witt", subop, *tuples)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {"type": "ParseError", "message": want}


@pytest.mark.parametrize("argv", [
    ["witt", "ghost", "--m", "0", "(1,2)"],
    ["drw", "phi", "--m", "0", "--witt", "(3,0)", "--bs", "x"],
    ["drw", "v", "--level", "0", "--witt", "(3,0)", "--bs", "x"],
    ["witt", "ghost", "--m", "-1", "(1,2)"],
    ["witt", "gamma-inv", "--m", "0", "(1)"],
    ["drw", "d", "--m", "0", "--witt", "(3,0)"],
    ["nf", "--m", "0", "--symbol", "{1+t}"],
    ["cyc", "--m", "-1", "--gen", "(1-3t)"],
])
def test_level_zero_exits_2(capsys, argv):
    """Every subcommand refuses a level below 1 with one message."""
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "type": "ValueError", "message": "level must be >= 1"}


@pytest.mark.parametrize("argv", [
    ["nf", "--m", "0", "--symbol", "{(641^96645)^19}"],
    ["cyc", "--m", "0", "--gen", "((641^96645)^19; x)"],
    ["nf", "--m", "-3", "--symbol", "{1+t, x}"],
])
def test_level_below_one_exits_2_before_parsing(capsys, monkeypatch, argv):
    def refuse(*args):
        raise AssertionError("input parsed before the level check")

    monkeypatch.setattr(cli, "parse_symbol", refuse)
    monkeypatch.setattr(cli, "parse_generator", refuse)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "type": "ValueError", "message": "level must be >= 1"}


@pytest.mark.parametrize("argv, error", [
    (["nf", "--n", "0", "--symbol", "{(641^96645)^19}"],
     {"type": "ParseError", "message": "--n must be >= 1"}),
    (["cyc", "--n", "-2", "--gen", "((641^96645)^19; x)"],
     {"type": "ParseError", "message": "--n must be >= 1"}),
    (["drw", "f", "--s", "0", "--witt", "((641^96645)^19)", "--bs", "(641^96645)^19"],
     {"type": "ValueError", "message": "s must be >= 1"}),
    (["drw", "v", "--s", "-1", "--level", "4", "--witt", "((641^96645)^19)"],
     {"type": "ValueError", "message": "s must be >= 1"}),
])
def test_n_and_s_below_one_exit_2_before_parsing(capsys, monkeypatch, argv, error):
    def refuse(*args):
        raise AssertionError("input parsed before the --n and --s checks")

    for name in ("parse_symbol", "parse_generator", "parse_tuple", "parse_elem"):
        monkeypatch.setattr(cli, name, refuse)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == error


def test_drw_phi_ignores_s(capsys):
    code, out, _ = run(capsys, "drw", "phi", "--s", "0", "--witt", "(3,0)", "--bs", "x")
    assert code == 0 and json.loads(out)["level"] == 2


@pytest.mark.parametrize("argv, level", [
    (["nf", "--m", "1000000000", "--symbol", "{1+t, x}"], 1000000000),
    (["cyc", "--m", "257", "--gen", "(1-3t; x)"], 257),
    (["witt", "ghost", "--m", "257", "(1,2)"], 257),
    (["witt", "gamma-inv", "--m", "1000", "(1,2)"], 1000),
    (["drw", "d", "--m", "300", "--witt", "(3,0)"], 300),
    (["drw", "restrict", "--level", "257", "--witt", "(3,0)"], 257),
    (["drw", "v", "--level", "1000000000", "--witt", "(x)"], 1000000000),
    # drw v without --level reaches level s*m
    (["drw", "v", "--m", "1", "--witt", "(x)", "--s", "1000000000"], 1000000000),
    (["drw", "v", "--witt", "(x,1)", "--s", "129"], 258),
    # without --m the level is the tuple's length, checked before any entry
    # is parsed; gamma-inv reads m + 1 coefficients
    (["witt", "ghost", "(%s)" % ",".join(["x"] * 257)], 257),
    (["witt", "gamma-inv", "(%s)" % ",".join(["1"] * 258)], 257),
    (["drw", "d", "--witt", "(%s)" % ",".join(["x"] * 257), "--bs", "x"], 257),
])
def test_level_above_the_limit_exits_2(capsys, argv, level):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "type": "ParseError", "message": "level %d is above the limit 256" % level}


def test_level_at_the_limit_runs(capsys):
    code, out, _ = run(capsys, "drw", "v", "--m", "1", "--witt", "(x)", "--s", "256")
    assert code == 0 and json.loads(out)["level"] == 256
    code, out, _ = run(capsys, "witt", "ghost", "(%s)" % ",".join(["1"] * 256))
    assert code == 0 and len(json.loads(out)["ghost"]) == 256


def test_monomial_entry_with_a_huge_exponent_is_fast(capsys):
    """dlog(x^N) = N x^(N-1) / x^N cancels by the one-term gcd, without a
    dense image of degree N."""
    start = time.perf_counter()
    code, out, _ = run(capsys, "nf", "--m", "1", "--vars", "x",
                       "--symbol", "{1+t, x^10000000}")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    assert json.loads(out)["canon"]["comps"] == [[[[0], {
        "num": [[[0], "10000000/1"]], "den": [[[1], "1/1"]]}]]]


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_verify_trials_below_one_exits_2(capsys, trials):
    code, out, err = run(capsys, "verify", "--suite", "drw", "--trials", trials)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "type": "ParseError", "message": "trials must be at least 1, got %s" % trials}


def test_verify_empty_variable_list_exits_2(capsys):
    code, out, err = run(capsys, "verify", "--suite", "drw", "--trials", "1",
                         "--vars", " , ")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "type": "ParseError", "message": "empty variable list"}


@pytest.mark.parametrize("argv, message", [
    (["nf", "--vars", "1", "--symbol", "{1+t,2}"], "variable name '1' is not an identifier"),
    (["witt", "ghost", "--vars", "+", "(1)"], "variable name '+' is not an identifier"),
    (["witt", "ghost", "--vars", "(", "(1)"], "variable name '(' is not an identifier"),
    (["verify", "--suite", "drw", "--trials", "1", "--vars", "2"],
     "variable name '2' is not an identifier"),
    (["nf", "--vars", "t", "--symbol", "{1+t,t}"], "variable list may not shadow t"),
])
def test_variable_names_must_be_identifiers(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {"type": "ParseError", "message": message}


@pytest.mark.parametrize("subop, m, tuple_, want", [
    ("unghost", "3", "(1,2)", 3),
    ("gamma-inv", "3", "(1,2)", 4),
    ("gamma-inv", "2", "(1,2)", 3),
])
def test_witt_m_checks_every_subop(capsys, subop, m, tuple_, want):
    code, out, err = run(capsys, "witt", subop, "--m", m, tuple_)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "type": "ParseError", "message": "expected %d coordinates, got 2" % want}


@pytest.mark.parametrize("subop, m, tuple_, want", [
    ("unghost", "2", "(1,2)", "W(1, 1/2)"),
    ("gamma-inv", "1", "(1,2)", "W(-2)"),
    ("gamma-inv", "2", "(1,2,3)", "W(-2, -3)"),
])
def test_witt_without_m_reads_the_tuple_length(capsys, subop, m, tuple_, want):
    code, out, _ = run(capsys, "witt", subop, tuple_, "--pretty")
    assert code == 0 and out.strip() == want
    assert run(capsys, "witt", subop, "--m", m, tuple_, "--pretty")[:2] == (0, out)


@pytest.mark.parametrize("argv, text", [
    (["witt", "ghost", "(1,,2)"], "(1,,2)"),
    (["witt", "ghost", "(1,2,)"], "(1,2,)"),
    (["witt", "ghost", "()"], "()"),
    (["nf", "--vars", "x", "--symbol", "{1+t,,x}"], "{1+t,,x}"),
    (["nf", "--symbol", "{}"], "{}"),
    (["cyc", "--vars", "x", "--gen", "(1-t; x,)"], "(1-t; x,)"),
    (["cyc", "--vars", "x", "--gen", "2*(1-t; ,x)"], "2*(1-t; ,x)"),
    (["drw", "phi", "--vars", "x,y", "--witt", "(3,0)", "--bs", "x,,y"], "x,,y"),
])
def test_empty_entry_names_the_input(capsys, argv, text):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "type": "ParseError", "message": "empty entry in %r" % text}


def test_generator_without_cube_coordinates(capsys):
    code, out, _ = run(capsys, "cyc", "--vars", "x", "--gen", "(1-t;)")
    assert code == 0 and json.loads(out)["degree"] == 1


@pytest.mark.parametrize("flag, body", [("--symbol", "{1+t, x}"), ("--gen", "(1-t; x)")])
def test_symbols_and_generators_read_one_coefficient_prefix(capsys, flag, body):
    """Exactly one `*`, spaces allowed around it, for nf and cyc alike."""
    argv = ["nf" if flag == "--symbol" else "cyc", "--m", "2", "--vars", "x", flag]
    code, want, _ = run(capsys, *argv, "3*" + body)
    assert code == 0
    for spaced in ("3 * " + body, " 3 *" + body, "3* " + body):
        assert run(capsys, *argv, spaced) == (0, want, "")
    code, out, err = run(capsys, *argv, "3**" + body)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "type": "ParseError", "message": "malformed coefficient '3*'"}


def test_unexpected_end_of_input(capsys):
    code, out, err = run(capsys, "witt", "ghost", "(1+)")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "type": "ParseError", "message": "unexpected end of input in '1+'"}


@pytest.mark.parametrize("argv, kind, message", [
    (["nf", "--symbol", "2{1+t,x}"], "ParseError", "bad symbol prefix '2'"),
    (["nf", "--symbol", "{1+t,0^0}"], "ValueError", "0**0"),
    (["witt", "ghost", "((x)"], "ParseError", "expected ')' in '(x'"),
    (["witt", "ghost", "(x))"], "ParseError", "trailing input in 'x)'"),
    (["drw", "f", "--s", "0", "--witt", "(1,2)"], "ValueError", "s must be >= 1"),
    (["drw", "v", "--s", "0", "--witt", "(1,2)"], "ValueError", "s must be >= 1"),
    (["drw", "v", "--s", "2", "--level", "9", "--witt", "(1,2)"], "ValueError",
     "input level 2 too small for V_2 at level 9"),
])
def test_bad_input_exits_2_with_its_message(capsys, argv, kind, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {"type": kind, "message": message}


@pytest.mark.parametrize("signed, plain", [("{1+t,x^-1}", "{1+t,1/x}"),
                                           ("{1+t,x^--2}", "{1+t,x^2}")])
def test_exponent_signs(capsys, signed, plain):
    """Each '-' after '^' flips the exponent's sign."""
    got = run(capsys, "nf", "--symbol", signed)
    assert got[0] == 0 and got == run(capsys, "nf", "--symbol", plain)


@pytest.mark.parametrize("argv", [
    ["ghost", "--m", "3", "(x, 1/(x+1), 2)"],
    ["gamma", "(x, 1/(x+1), 2)"],
    ["gamma-inv", "(1, x, 1/(x+1))"],
    ["decompose", "(x, 0, 1/(x+1))"],
])
def test_witt_json_prints_no_element(capsys, monkeypatch, argv):
    """Without --pretty the output is built from to_json alone: no field
    element is printed."""
    want = run(capsys, "witt", *argv)
    assert want[0] == 0

    def refuse(self):
        raise AssertionError("printed a field element")

    monkeypatch.setattr(FieldElem, "__repr__", refuse)
    assert run(capsys, "witt", *argv) == want


# -- seeded fuzz of main ------------------------------------------------------
#
# Small inputs only: levels -1..5, tuples of up to 6 entries, and at most one
# "^" per string, followed by one digit.  Every call must return 0, 1 or 2,
# and an exit 2 must write one JSON line to stderr.

_WITT_OPS = ("add", "mul", "ghost", "unghost", "gamma", "gamma-inv", "decompose")
_DRW_OPS = ("phi", "d", "v", "f", "restrict")
_COMMANDS = (["nf", "cyc"] + ["witt " + op for op in _WITT_OPS]
             + ["drw " + op for op in _DRW_OPS])
_ONE_SMALL_POWER = re.compile(r"[^^]*(\^\d(?!\d)[^^]*)?")

_text = st.text("xyt0123456789+-*/^(),;{}\u00e9\u00b2", max_size=12).filter(
    _ONE_SMALL_POWER.fullmatch)
_atom = st.sampled_from(["x", "y", "t", "0", "1", "-2", "3/4", "(x+y)", "(1-t)", "x*y"])
_term = _atom | st.tuples(st.sampled_from(["x", "(x+1)", "(x-y+t)", "2"]),
                          st.integers(0, 9)).map("%s^%d".__mod__)
_expr = st.lists(st.tuples(st.sampled_from("+-*/"), _atom), max_size=3).flatmap(
    lambda rest: _term.map(lambda head: head + "".join(op + a for op, a in rest)))
_entry = st.integers(0, 7).flatmap(lambda i: _text if i == 0 else _expr)
_entries = st.lists(_entry, max_size=6).map(",".join)
_tuple = st.lists(_entry, min_size=1, max_size=6).map(",".join).map("({})".format)
_level = st.integers(-1, 5).map(str)


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(_COMMANDS))
    # t is the series variable of nf and cyc, and an ordinary one elsewhere
    series = command in ("nf", "cyc")
    names = ["x,y", "y,x", "x", "x,t"] if series else ["x,y,t", "t,y,x", "x"]
    argv = command.split() + ["--vars", draw(st.sampled_from(names + ["\u00e9"]))]
    if draw(st.integers(0, 2)) == 0:  # a level fixes the tuple lengths
        argv += ["--m", draw(_level)]
    if command == "nf":
        coef = draw(st.sampled_from(["", "2*", "-1/2*"]))
        argv += ["--symbol", coef + "{%s}" % draw(_entries)]
    elif command == "cyc":
        argv += ["--gen", "(%s;%s)" % (draw(_entry), draw(_entries))]
    elif command.startswith("witt"):
        binary = command in ("witt add", "witt mul")
        argv += [draw(_tuple) for _ in range(2 if binary else 1)]
    else:
        argv += ["--witt", draw(_tuple), "--bs", draw(_entries),
                 "--s", str(draw(st.integers(1, 3)))]
        if draw(st.booleans()):
            argv += ["--level", draw(_level)]
    if draw(st.booleans()):
        argv.append("--pretty")
    return argv


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_argv())
@example(["witt", "ghost", "--", "(1)"])
@example(["nf", "--vars", "x", "--symbol", "{1+t, x^9}", "--m", "5"])
@example(["witt", "ghost", "--vars", "\u00e9", "(\u00e9\u00b2)"])
@example(["drw", "v", "--witt", "(x,y)", "--vars", "x,y", "--s", "3", "--level", "5"])
def test_main_exit_codes_under_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    if code == 2:
        assert err.getvalue().count("\n") == 1 and "error" in json.loads(err.getvalue())


for _dashed, _ in _DOUBLE_DASH:
    test_main_exit_codes_under_fuzz = example(_dashed)(test_main_exit_codes_under_fuzz)
