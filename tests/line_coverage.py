"""The lines of the package that no run reaches, found by a line tracer.

    python tests/line_coverage.py src [--corpus] [-- pytest arguments]

Imports ``wittcycles`` from the given source directory, traces the
tier-1 tests (pytest over ``tests/``, or over the pytest arguments given
after ``--``) and, with ``--corpus``, every call of ``tests/cli_corpus.py``
with and without ``--pretty``.  It then prints, per module, the
executable lines that no run reached, and last the line ``unreached N``
with their total, so that two trees compare by one number.  The
executable lines are those that the code objects compiled from each
module list in ``co_lines()``; the tracer is a ``sys.settrace`` hook, so
``coverage`` is not needed.
A traced tier-1 run takes about three times as long as an untraced one.
The exit code is pytest's.  pytest does not collect this file.
"""

import argparse
import os
import sys
import threading
from collections import defaultdict
from glob import glob

TESTS = os.path.dirname(os.path.abspath(__file__))


def executable_lines(path):
    """The line numbers that the code objects of the module at path list."""
    with open(path) as source:
        todo = [compile(source.read(), path, "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines):
    """"3-5, 9" for the sorted line numbers 3, 4, 5, 9."""
    out = []
    for line in sorted(lines):
        if out and out[-1][1] == line - 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in out)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src", help="the source directory holding the wittcycles package")
    p.add_argument("--corpus", action="store_true",
                   help="also run the calls of tests/cli_corpus.py")
    p.add_argument("pytest_args", nargs="*", help="after --: what pytest runs")
    args = p.parse_args(argv)
    package = os.path.join(os.path.abspath(args.src), "wittcycles")
    files = {path: executable_lines(path)
             for path in sorted(glob(os.path.join(package, "*.py")))}
    hits = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    sys.path[:0] = [os.path.abspath(args.src), TESTS]
    import pytest
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(args.pytest_args or [TESTS])])
        if args.corpus:
            import cli_corpus
            from wittcycles import cli
            for call in cli_corpus.corpus():
                for argv_ in (call, call + ["--pretty"]):
                    cli_corpus.run(cli.main, argv_)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    loaded = sys.modules.get("wittcycles")
    if loaded is not None and not loaded.__file__.startswith(package):
        sys.exit("line_coverage: wittcycles was imported from %s" % loaded.__file__)
    total = 0
    for path, lines in files.items():
        missed = lines - hits[path]
        total += len(missed)
        print("%s: %d of %d lines unreached%s" % (
            os.path.basename(path), len(missed), len(lines),
            ": " + ranges(missed) if missed else ""))
    print("unreached %d" % total)
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
