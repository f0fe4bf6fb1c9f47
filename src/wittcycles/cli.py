"""Command-line front end.

Subcommands: nf (normal form of relative Milnor symbols), cyc (class of a
0-cycle generator), witt (Witt-vector operations), drw (de Rham-Witt
operations), verify (property suites).  Output is JSON by default;
--pretty switches to a human-readable rendering.  Exit codes: 0 success,
1 property failure, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import addchow, drw, relmilnor, verify, witt
from .errors import ParseError, ResourceLimit, ShapeError, WittCyclesError
from .scalars import Context, parse_elem, parse_fraction, write_json
from .trunc import TruncElem, parse_trunc

# The highest level any subcommand accepts.  A level m allocates lists of
# m + 1 coefficients or m ghost components before any other check, so
# without a bound one call could exhaust memory.  The benchmark reaches
# m = 32 and the acceptance checks m = 8.
MAX_LEVEL = 256


def _entries(body, text):
    """The comma-separated entries of body, split outside parentheses;
    an empty entry is a ParseError that names the whole input text."""
    parts, depth = [], 0
    for piece in body.split(","):
        if depth:  # the comma before piece is inside parentheses
            parts[-1] += "," + piece
        else:
            parts.append(piece)
        depth += piece.count("(") - piece.count(")")
    if not all(p.strip() for p in parts):
        raise ParseError("empty entry in %r" % text)
    return parts


def _coef_prefix(text, opener, ring):
    """Split `c*<opener>...` into the coefficient c and the text from the
    first opener on, with spaces allowed around the one `*`.  A text
    without such a prefix comes back whole, with c = 1."""
    head, sep, rest = text.partition(opener)
    head = head.strip()
    if not (sep and head.endswith("*")):
        return Fraction(1), text
    coef = parse_fraction(head[:-1])
    if ring == "z" and coef.denominator != 1:
        raise ParseError("coefficient %s is not an integer (--coeff z)" % coef)
    return coef, sep + rest


def parse_symbol(ctx, m, text, ring="q"):
    """`{u_1, ..., u_n}` with an optional `c*` prefix; entries use the
    truncated-polynomial grammar."""
    text = text.strip()
    if "{" not in text:
        raise ParseError("symbol must contain {...}: %r" % text)
    coef, body = _coef_prefix(text, "{", ring)
    if not body.startswith("{"):
        raise ParseError("bad symbol prefix %r" % text.partition("{")[0].strip())
    if not body.endswith("}"):
        raise ParseError("unterminated symbol %r" % text)
    entries = [parse_trunc(ctx, m, part) for part in _entries(body[1:-1], text)]
    return relmilnor.RelSymbol(entries, coef)


def parse_generator(ctx, m, text, ring="q"):
    """`c*(f(t); b_1, ..., b_(n-1))` with an optional `c*` prefix; without
    a semicolon the generator has no cube coordinates."""
    text = text.strip()
    coef, gen = _coef_prefix(text, "(", ring)
    if not (gen.startswith("(") and gen.endswith(")")):
        raise ParseError("generator must be parenthesized: %r" % gen)
    parts = gen[1:-1].split(";")
    if len(parts) > 2:
        raise ParseError("too many ';' in generator %r" % gen)
    fpoly = parse_trunc(ctx, m, parts[0])
    bs = []
    if len(parts) == 2 and parts[1].strip():
        bs = [parse_elem(ctx, p) for p in _entries(parts[1], text)]
    return addchow.CycleGen(list(fpoly.comps), bs, coef)


def parse_tuple(ctx, text, extra=0):
    """`(e_1, ..., e_n)`; n - extra is the level the tuple implies, checked
    against MAX_LEVEL before any entry is parsed."""
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ParseError("tuple must be parenthesized: %r" % text)
    entries = _entries(text[1:-1], text)
    _check_level(len(entries) - extra)
    return [parse_elem(ctx, p) for p in entries]


def _context(args):
    names = tuple(n.strip() for n in args.vars.split(",") if n.strip())
    if not names:
        raise ParseError("empty variable list")
    return Context(names)


def _check_level(level):
    if level is not None and level > MAX_LEVEL:  # drw v's s*m may be too long to print
        shown = level if level < 10 ** 100 else "of over 100 digits"
        raise ParseError("level %s is above the limit %d" % (shown, MAX_LEVEL))


def _coordinate_tuples(ctx, texts, m, extra=0):
    """The parsed tuples; with m given, each must have m + extra entries."""
    tuples = [parse_tuple(ctx, text, extra) for text in texts]
    for coords in tuples:
        if m is not None and len(coords) != m + extra:
            raise ParseError("expected %d coordinates, got %d" % (m + extra, len(coords)))
    return tuples


def _output(args, text, json_text):
    """Print text() under --pretty and json_text() otherwise, building only
    the one printed; an integer that Python refuses to write is a ResourceLimit."""
    try:
        out = text() if args.pretty else json_text()
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise ResourceLimit("the output has an integer of more than %d digits" % limit) from exc
    print(out)
    return 0


# -- subcommands --------------------------------------------------------

def _class_output(args, parse, texts, to_class):
    """Parse the input texts, take their relative Milnor class (a
    CanonRelForm, of form degree n - 1), check n against --n and print it."""
    ctx = _context(args)
    cls = to_class([parse(ctx, args.m, text, args.coeff) for text in texts])
    if args.n is not None and cls.degree + 1 != args.n:
        raise ParseError("symbol degree %d does not match --n %d"
                         % (cls.degree + 1, args.n))
    return _output(args, lambda: "degree %d, level %d\ncanon: %s"
                   % (cls.degree + 1, cls.level, cls), cls.json_text)


def cmd_nf(args):
    return _class_output(args, parse_symbol, args.symbol, relmilnor.normal_form)


def cmd_cyc(args):
    return _class_output(args, parse_generator, args.gen,
                         lambda gens: addchow.cyc_milnor(gens, args.m))


def cmd_witt(args):
    op = args.subop
    want = 2 if op in ("add", "mul") else 1
    if len(args.args) != want:
        raise ParseError("witt %s takes %d tuple%s, got %d"
                         % (op, want, "s" if want > 1 else "", len(args.args)))
    ctx = _context(args)
    # gamma-inv reads the m + 1 coefficients of a truncated polynomial
    tuples = _coordinate_tuples(ctx, args.args, args.m, 1 if op == "gamma-inv" else 0)

    def vec(i=0):
        return witt.WittVector(ctx, len(tuples[i]), tuples[i])

    coords = tuples[0]
    if op == "ghost":
        g = witt.ghost(vec())
        return _output(args, lambda: "G(" + ", ".join(str(c) for c in g) + ")",
                       lambda: write_json({"ghost": g}))
    if op == "decompose":
        pairs = witt.witt_decompose(vec())
        return _output(args,
                       lambda: ", ".join("V_%d[%s]" % (i, a) for i, a in pairs) or "0",
                       lambda: write_json([[i, a] for i, a in pairs]))
    if op == "add":
        out = vec(0) + vec(1)
    elif op == "mul":
        out = vec(0) * vec(1)
    elif op == "unghost":
        out = witt.unghost(tuple(coords))
    elif op == "gamma":
        out = witt.gamma(vec())
    else:  # gamma-inv
        out = witt.gamma_inv(TruncElem(ctx, len(coords) - 1, coords))
    return _output(args, lambda: repr(out), out.json_text)


def cmd_drw(args):
    ctx = _context(args)
    coords, = _coordinate_tuples(ctx, [args.witt], args.m)
    a = witt.WittVector(ctx, len(coords), coords)
    bs = [parse_elem(ctx, b) for b in _entries(args.bs, args.bs)] if args.bs else []
    form = drw.phi(a, bs)
    op = args.subop
    if op == "phi":
        out = form
    elif op == "d":
        out = drw.drw_d(form)
    elif op == "v":
        level = args.s * form.level if args.level is None else args.level
        _check_level(level)
        out = drw.drw_V(args.s, form, level)
    elif op == "f":
        out = drw.drw_F(args.s, form)
    else:  # restrict
        if args.level is None:
            raise ParseError("restrict needs --level")
        out = form.restrict(args.level)
    return _output(args, lambda: repr(out), out.json_text)


def cmd_verify(args):
    report = verify.run_suite(args.suite, seed=args.seed, trials=args.trials,
                              names=_context(args).names)
    if args.pretty:
        reports = report.get("reports", [report])
        for r in reports:
            for p in r["properties"]:
                status = "PASS" if p["ok"] else "FAIL"
                line = "%s  %s/%s (%d trials, %.3fs)" % (
                    status, r["suite"], p["name"], p["trials"], p["elapsed_s"])
                if p["counterexample"]:
                    line += "  counterexample: %s" % p["counterexample"]
                print(line)
        print("overall: %s" % ("PASS" if report["ok"] else "FAIL"))
    else:
        print(json.dumps(report, default=str))
    return 0 if report["ok"] else 1


class _Parser(argparse.ArgumentParser):
    """Raises ParseError on bad arguments.  An option that takes a value
    takes a following one that starts with "-" ("--bs -x*y"), unless that
    value is itself an option.  Options are read as argparse reads them:
    an exact option string or a unique prefix of one ("--b -x*y").  A
    value of "--" is refused; argparse would strip it to an empty list."""

    def error(self, message):
        raise ParseError(message)

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            raise argparse.ArgumentError(action, "expected one argument")
        return super()._get_values(action, arg_strings)

    def _action(self, arg):
        """The action of the option arg names, or None."""
        options = self._option_string_actions
        if arg in options or not arg.startswith("--"):
            return options.get(arg)
        found = {a for s, a in options.items() if s.startswith(arg)}
        return found.pop() if len(found) == 1 else None

    def parse_known_args(self, args=None, namespace=None):
        joined = []
        for arg in sys.argv[1:] if args is None else args:
            if (joined and arg.startswith("-") and self._action(arg) is None
                    and getattr(self._action(joined[-1]), "nargs", 0) is None):
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        return super().parse_known_args(joined, namespace)


@functools.cache
def build_parser():
    top = _Parser(prog="wittcycles")
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, m_default=None):
        p.add_argument("--vars", default="x", help="comma-separated variable names")
        p.add_argument("--m", type=int, default=m_default, help="truncation level")
        p.add_argument("--pretty", action="store_true")

    def class_options(p):
        common(p, m_default=1)
        p.add_argument("--n", type=int, default=None, help="expected degree")
        p.add_argument("--coeff", choices=("z", "q"), default="q",
                       help="coefficient ring for symbol scalars")

    p = sub.add_parser("nf", help="normal form of a relative symbol sum")
    class_options(p)
    p.add_argument("--symbol", action="append", required=True,
                   help='e.g. "{1+t, x}" or "3*{1+t, x}"; repeatable')
    p.set_defaults(fn=cmd_nf)

    p = sub.add_parser("cyc", help="Milnor class of 0-cycle generators")
    class_options(p)
    p.add_argument("--gen", action="append", required=True,
                   help='e.g. "(1-3t; x)"; repeatable')
    p.set_defaults(fn=cmd_cyc)

    p = sub.add_parser("witt", help="Witt vector operations")
    common(p)
    p.add_argument("subop", choices=("add", "mul", "ghost", "unghost",
                                     "gamma", "gamma-inv", "decompose"))
    p.add_argument("args", nargs="+", help='coordinate tuples like "(3,0)"')
    p.set_defaults(fn=cmd_witt)

    p = sub.add_parser("drw", help="de Rham-Witt operations on phi(a, bs)")
    common(p)
    p.add_argument("subop", choices=("phi", "d", "v", "f", "restrict"))
    p.add_argument("--witt", required=True, help='Witt coordinates "(a1,...,am)"')
    p.add_argument("--bs", default="", help="comma-separated dlog entries")
    p.add_argument("--s", type=int, default=2, help="index for V_s / F_s")
    p.add_argument("--level", type=int, default=None, help="target level")
    p.set_defaults(fn=cmd_drw)

    p = sub.add_parser("verify", help="run property suites")
    p.add_argument("--suite", default="all", choices=("all", *verify.SUITES))
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vars", default="x,y")
    p.add_argument("--pretty", action="store_true")
    p.set_defaults(fn=cmd_verify)
    return top


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        # cheap checks before any input is read; cmd_drw checks the level
        # s*m of drw v
        for level in (getattr(args, "m", None), getattr(args, "level", None)):
            if level is not None and level < 1:
                raise ShapeError("level must be >= 1")
            _check_level(level)
        if getattr(args, "n", None) is not None and args.n < 1:
            raise ParseError("--n must be >= 1")
        if args.command == "drw" and args.subop in ("f", "v") and args.s < 1:
            raise ShapeError("s must be >= 1")
        return args.fn(args)
    except WittCyclesError as exc:
        error = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(error), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
