"""A fixed corpus of in-process CLI calls and one digest over their results.

    PYTHONHASHSEED=0 python tests/cli_corpus.py src [--dump FILE] [--update]

Imports ``wittcycles`` from the given source directory and runs every
call of the corpus through ``cli.main``, once without and once with
``--pretty``.  It prints the number of calls, how many exited 0, and a
sha256 over (argv, exit code, stdout, stderr) of every call in turn.  A
second line, ``src lines N``, counts the lines of the package's ``*.py``
files.  The times that ``verify`` reports are masked, so two source
trees whose outputs agree print the same digest.  ``--dump`` writes one
JSON line per call, to find the first call where two trees differ.
``--update`` rewrites ``tests/golden/corpus.jsonl``, which
``tests/test_golden.py`` checks: one line per call outside ``verify``,
its argv and the sha256 of its (exit code, stdout, stderr).

The corpus covers ``nf`` and ``cyc`` at levels 1..8 with polynomial- and
fraction-tier units, every ``witt`` and ``drw`` subop, every ``verify``
suite at seeds 0..2, and bad inputs, with the nesting limit met and
passed.  A last block, in x, y and in x, y, z, puts denominators with
repeated factors into ``drw phi``, ``drw d``, ``nf`` and ``cyc``.
pytest does not collect this file.
"""

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import random
import re
import sys

LEVELS = range(1, 9)

# t-coefficients and entries: integers, variables, single terms and
# fractions whose denominators are constant, a variable or a sum
COEFFS = ["1", "-2", "x", "-y", "1/2", "3*x*y", "x/(y+1)", "(x+1)/(2*y)",
          "2/(x-y)", "x^2 - y/3"]
ENTRIES = ["x", "y", "x+y", "-x*y", "2", "1/(x+y)", "x/(y+1)", "(x-1)/3"]

NF_SYMBOLS = [
    "{1+t, x}", "{1+x*t, y}", "{1-t^2, x, y}", "3*{1+t, x}",
    "-1/2*{1 + x*t + y*t^2, x + y}", "{1 + t/(x+1), x}",
    "{1 + (x/(y+2))*t, y/x}", "{(1+x*t)*(1-y*t), x*y}", "{1+t, 1-t}",
    "{1+t,1+t}", "{1 + 2*t + x^2*t^3, 1/(x+y)}", "{1 + x*t}",
    "{1 + t/(x^2+y), 1 + y*t, x}", "{2 + t, x}",
]
CYC_GENS = [
    "(1-3t; x)", "(1+x*t; y)", "2*(1 - t/(x+1); x, y)", "(1+t)",
    "(1 + x*t + y*t^2; x+y)", "-1/3*(1 - 2*t; 1/(x+y))", "(1 + t/(x+1); y)",
    "(1 - x*t^2; x/(y+1))", "(1-t;)",
]
ERRORS = [
    ["nf", "--symbol", "{1+t"], ["nf", "--symbol", "1+t, x"],
    ["nf", "--symbol", "{1+t, z}"], ["nf", "--symbol", "{1+t, , x}"],
    ["nf", "--symbol", "1/0*{1+t, x}"], ["nf", "--symbol", "{1+t, 1/(1+t)}"],
    ["nf", "--symbol", "{1+t, 0}"], ["nf", "--symbol", "{x*t, x}"],
    ["nf", "--vars", "x,y", "--symbol", "{(1+x*t)/(1-y*t), x}"],
    ["nf", "--symbol", "x*{1+t, x}"], ["nf", "--symbol", "{1+t, x}", "--n", "3"],
    ["nf", "--coeff", "z", "--symbol", "1/2*{1+t, x}"],
    ["nf", "--m", "0", "--symbol", "{1+t, x}"],
    ["nf", "--m", "257", "--symbol", "{1+t, x}"],
    ["nf", "--vars", "t", "--symbol", "{1+t, t}"], ["nf", "--vars", ",", "--symbol", "{1+t}"],
    ["nf", "--vars", "x,x", "--symbol", "{1+t}"], ["nf", "--symbol", "{1+t, x^}"],
    ["nf", "--symbol", "{1+t, x^y}"], ["nf", "--symbol", "{1+t, x $ 2}"],
    ["nf", "--symbol", "{1+t, %s}" % ("(" * 101 + "x" + ")" * 101)],
    ["nf", "--symbol", "{1+t, %s}" % ("(" * 100 + "x" + ")" * 100)],
    ["cyc", "--gen", "1-3t; x"], ["cyc", "--gen", "(1-3t; x; y)"],
    ["cyc", "--gen", "(3t; x)"], ["cyc", "--gen", "(1-3t; 0)"],
    ["witt", "add", "(1,2)"], ["witt", "ghost", "(1,2)", "(3,4)"],
    ["witt", "ghost", "(1,,2)"], ["witt", "ghost", "1,2"], ["witt", "ghost", "(1+)"],
    ["witt", "ghost", "--m", "3", "(1,2)"], ["witt", "ghost", "--m", "0", "(1)"],
    ["witt", "gamma-inv", "(0, 1)"], ["witt", "gamma-inv", "(2, x)"],
    ["witt", "unghost", "(1/0, 1)"], ["witt", "frobenius", "(1)"],
    ["drw", "phi", "--witt", "(1,2)", "--bs", "0"],
    ["drw", "restrict", "--witt", "(1,2)"],
    ["drw", "v", "--witt", "(1,2)", "--s", "200"],
    ["drw", "phi", "--witt", "(1,2)", "--n", "2"],
    ["verify", "--suite", "nope"], ["verify", "--trials", "0"],
    ["verify", "--vars", ""], ["frobnicate"],
]


def _random_unit(rng):
    terms = ["1"] + ["(%s)*t^%d" % (rng.choice(COEFFS), e)
                     for e in range(1, 4) if rng.random() < 0.7]
    return " + ".join(terms)


def _tuple(rng, length):
    return "(%s)" % ", ".join(rng.choice(COEFFS + ["0"]) for _ in range(length))


def corpus():
    """The argument lists of the corpus, without --pretty."""
    rng = random.Random(1978)
    calls = []
    symbols = NF_SYMBOLS + ["{%s}" % ", ".join(
        [_random_unit(rng)] + rng.sample(ENTRIES, rng.randint(0, 2)))
        for _ in range(10)]
    gens = CYC_GENS + ["(%s; %s)" % (_random_unit(rng), ", ".join(
        rng.sample(ENTRIES, rng.randint(1, 2)))) for _ in range(6)]
    for m in LEVELS:
        calls += [["nf", "--m", str(m), "--vars", "x,y", "--symbol", s] for s in symbols]
        calls += [["cyc", "--m", str(m), "--vars", "x,y", "--gen", g] for g in gens]
    calls += [["nf", "--m", "3", "--vars", "x,y", "--symbol", a, "--symbol", b]
              for a, b in zip(symbols, reversed(symbols))]
    calls += [["cyc", "--m", "3", "--vars", "x,y", "--gen", a, "--gen", b]
              for a, b in zip(gens, reversed(gens))]
    calls += [["nf", "--m", "2", "--vars", "x", "--coeff", "z", "--n", "2",
               "--symbol", "%d*{1 + x*t, x + 1}" % k] for k in (-2, 1, 5)]
    for subop in ("ghost", "unghost", "gamma", "decompose"):
        for length in range(1, 6):
            for _ in range(3):
                tup = _tuple(rng, length)
                calls.append(["witt", subop, "--vars", "x,y", tup])
                calls.append(["witt", subop, "--vars", "x,y", "--m", str(length), tup])
    for subop in ("add", "mul"):
        for length in range(1, 6):
            for _ in range(3):
                calls.append(["witt", subop, "--vars", "x,y",
                              _tuple(rng, length), _tuple(rng, length)])
    for length in range(2, 7):
        for _ in range(3):
            tup = "(1, %s)" % _tuple(rng, length - 1)[1:-1]
            calls.append(["witt", "gamma-inv", "--vars", "x,y", tup])
            calls.append(["witt", "gamma-inv", "--vars", "x,y", "--m", str(length - 1), tup])
    for subop in ("phi", "d", "v", "f", "restrict"):
        for length in range(1, 5):
            for _ in range(3):
                call = ["drw", subop, "--vars", "x,y", "--witt", _tuple(rng, length),
                        "--s", str(rng.randint(2, 3))]
                bs = rng.sample(ENTRIES[:6], rng.randint(0, 2))
                if bs:
                    call.append("--bs=" + ",".join(bs))  # an entry may start with "-"
                if subop == "restrict" or (subop == "v" and rng.random() < 0.5):
                    call += ["--level", str(rng.randint(1, length + 1))]
                calls.append(call)
    for seed in range(3):
        for suite in ("witt", "drw", "relmilnor", "reciprocity", "cycle-iso", "rewriting"):
            calls.append(["verify", "--suite", suite, "--trials", "2", "--seed", str(seed)])
    calls.append(["verify", "--suite", "all", "--trials", "1", "--vars", "x"])
    return calls + ERRORS + repeated_factors()


# denominators with repeated factors, integer content and factors free of
# some variable
REPEATED = {"x,y": ["(x+1)^2/(y-2)^3", "x/(x*y+1)^2", "(x-y)^3/(2*(x+y)^2)",
                    "1/(3*(y+1)^3)"],
            "x,y,z": ["(x+z)^2/(y-2*z)^3", "z/(x*y+z)^2", "(x-1)^2/(6*(y+z)^3)",
                      "y/(z+2)^2"]}


def repeated_factors():
    """The calls whose denominators have repeated factors; appended to the
    corpus so that the earlier calls keep their places."""
    calls = []
    for names, entries in REPEATED.items():
        for a, b in zip(entries, entries[1:] + entries[:1]):
            for subop in ("phi", "d"):
                for witt in ("(1, x)", "(%s, 2, y)" % a):
                    calls.append(["drw", subop, "--vars", names, "--witt", witt,
                                  "--bs=" + b])
                calls.append(["drw", subop, "--vars", names, "--witt", "(1, %s)" % b,
                              "--bs=%s,%s" % (a, b)])
            for m in (1, 2, 3):
                calls.append(["nf", "--m", str(m), "--vars", names,
                              "--symbol", "{1 + (%s)*t, %s}" % (a, b)])
                calls.append(["nf", "--m", str(m), "--vars", names,
                              "--symbol", "{1 + t^2/(%s), %s, x}" % (b, a)])
                calls.append(["cyc", "--m", str(m), "--vars", names,
                              "--gen", "(1 - (%s)*t; %s)" % (b, a)])
    return calls


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "corpus.jsonl")


def golden_calls():
    """The corpus calls outside ``verify``, each without and with --pretty,
    in corpus order: the calls of the golden file."""
    return [argv for call in corpus() if call[0] != "verify"
            for argv in (call, call + ["--pretty"])]


def outcome_sha256(outcome):
    """The sha256 of one call's (exit code, stdout, stderr)."""
    return hashlib.sha256(json.dumps(list(outcome)).encode()).hexdigest()


# verify's timings: "elapsed_s": 0.123 in JSON, "(2 trials, 0.123s)" pretty
_TIMES = re.compile(r'("elapsed_s": )[-+.0-9e]+|(trials, )[.0-9]+(?=s\))')


def _mask(text):
    return _TIMES.sub(lambda m: (m.group(1) or m.group(2)) + "_", text)


def run(main, argv):
    """(exit code, stdout, stderr) of one call; an exception that escapes
    main is recorded by its type and message in place of an exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a finding: record it
            code = "raised %s: %s" % (type(exc).__name__, exc)
    return code, _mask(out.getvalue()), _mask(err.getvalue())


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src", help="the source directory holding the wittcycles package")
    p.add_argument("--dump", help="write one JSON line per call to this file")
    p.add_argument("--update", action="store_true",
                   help="rewrite the golden file from these outputs")
    args = p.parse_args(argv)
    src = os.path.join(os.path.abspath(args.src), "")
    sys.path.insert(0, src)
    from wittcycles import cli
    if not os.path.abspath(cli.__file__).startswith(src):
        sys.exit("cli_corpus: wittcycles was imported from %s" % cli.__file__)

    digest = hashlib.sha256()
    count = passed = 0
    with (open(args.dump, "w") if args.dump else contextlib.nullcontext()) as dump, \
            (open(GOLDEN, "w") if args.update else contextlib.nullcontext()) as golden:
        for call in corpus():
            for argv_ in (call, call + ["--pretty"]):
                record = [argv_, *run(cli.main, argv_)]
                line = json.dumps(record)
                digest.update(line.encode() + b"\n")
                count += 1
                passed += record[1] == 0
                if dump:
                    dump.write(line + "\n")
                if golden and argv_[0] != "verify":
                    golden.write(json.dumps({"argv": argv_,
                                             "sha256": outcome_sha256(record[1:])}) + "\n")
    print("calls %d exit0 %d sha256 %s" % (count, passed, digest.hexdigest()))
    lines = 0
    for path in glob.glob(os.path.join(src, "wittcycles", "*.py")):
        with open(path) as source:
            lines += sum(1 for _ in source)
    print("src lines %d" % lines)


if __name__ == "__main__":
    main()
