"""Command-line front end.

Subcommands: check (full analysis and verdict), ladder (obstruction
values), chain (grid-lift coefficients, optionally with the lattice
trace), search (witness search only).  Exit codes: 0 when a verdict was
reached or the subcommand completed, 2 when check ends Unknown, 64 on
usage, parse, or precondition errors, 141 (128 + SIGPIPE, as a shell
reports for a process that signal ends) when stdout is closed before
the output is written.

main reads a plain command line (a subcommand, that subcommand's options
by their full names each followed by a valid value, and one word) with
_scan, and every other argv, help and usage errors included, with
argparse, whose output is unchanged; both read one option table.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii

from .cover import NotALoopError, lift_chain, lift_trace
from .obstructions import (DEFAULT_DEPTH, MAX_DEPTH, FactorReport, FirstObstruction, LadderEntry,
                           ObstructionReport, analyze, ladder)
from .oracle import search_with_stats
from .words import ParseError, parse

EXIT_OK = 0
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_BROKEN_PIPE = 141


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# options that more than one subcommand takes
_FORMAT = ("--format", ("text", "json"), "text", {})
_DEPTH = ("--depth", int, DEFAULT_DEPTH, {"metavar": "K"})
_BOUND = ("--bound", int, None, {"metavar": "L"})

# Each subcommand's help and options, in the order its help lists them.  An
# option is (name, kind, default, other add_argument keywords), and its kind is
# int, a tuple of choices, or bool for a flag.  _build_parser and _scan both
# read this table.
_COMMANDS = {
    "check": ("run all criteria plus the witness search",
              (_FORMAT, _DEPTH, _BOUND, ("--side", ("P", "both"), "P", {}))),
    "ladder": ("print the obstruction ladder", (_FORMAT, _DEPTH)),
    "chain": ("print the grid-lift chain coefficients",
              (_FORMAT, ("--trace", bool, False, {"help": "list visited lattice points"}))),
    "search": ("witness search only", (_FORMAT, _BOUND)),
}


@cache  # built only for the argv _scan leaves to argparse, then shared: parse_args keeps no state
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="twosquares",
        description="Decide or obstruct: is a free-group word a product of two squares?",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for command, (help_text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("word", help="word expression, e.g. '[x,y]' or 'x^2yX^2Y'")
        for name, kind, default, extra in options:
            if kind is bool:
                p.add_argument(name, action="store_true", default=default, **extra)
            elif kind is int:
                p.add_argument(name, type=int, default=default, **extra)
            else:
                p.add_argument(name, choices=kind, default=default, **extra)
    return parser


def _scan(argv) -> argparse.Namespace | None:
    """What parse_args(argv) returns, for a plain argv; None for any other.

    Plain: a subcommand, then its options by their exact names and one word;
    each valued option is followed by a value that int() or the choices
    accept, and no value or word starts with '-'.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    options = _COMMANDS[argv[0]][1]
    kinds = {name: kind for name, kind, _, _ in options}
    values = {name[2:]: default for name, _, default, _ in options}
    words = []
    rest = iter(argv[1:])
    for arg in rest:
        kind = kinds.get(arg)
        if kind is None:
            if arg.startswith("-"):
                return None
            words.append(arg)
            continue
        if kind is bool:
            values[arg[2:]] = True
            continue
        value = next(rest, "-")
        if value.startswith("-"):
            return None
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        elif value not in kind:
            return None
        values[arg[2:]] = value
    if len(words) != 1:
        return None
    return argparse.Namespace(command=argv[0], word=words[0], **values)


_FLAG = ("false", "true")


def _layout(items, indent: str, opener: str = "[", closer: str = "]") -> str:
    """The JSON list (or, given braces, object) of the item texts at
    indent, as json.dumps(indent=2) lays it out."""
    deeper = indent + "  "
    inner = ("," + deeper).join(items)
    return opener + deeper + inner + indent + closer if inner else opener + closer


def _rows(rows, row: str, indent: str) -> str:
    """The JSON list at indent of row.format(*r) for each r in rows."""
    return _layout(itertools.starmap(row.format, rows), indent)


def _fields(keys, indent: str) -> str:
    """The format template of a JSON object of keys at indent."""
    return _layout([f'"{key}": {{}}' for key in keys], indent, "{{", "}}")


# The JSON templates, laid out as the library's to_json and _asdict give the
# records: a term of P or Q is ((i, j), c), of f or g (n, c); a trace point
# (i, j) is laid out as a term of f or g.
_REPORT = _fields(("word", "expsums", "P", "Q", "f", "g", "ladder",
                   "first_obstruction", "factor", "verdict"), "\n")
_TERM2 = _layout(["{0[0]}", "{0[1]}", "{1}"], "\n    ")
_TERM1 = _layout(["{}", "{}"], "\n    ")
_RUNG = _fields(LadderEntry._fields, "\n    ")
_FIRST = _fields(FirstObstruction._fields, "\n  ")
_FACTOR = _fields((*FactorReport._fields, "side", "paper_stated"), "\n  ")
_VERDICT = _fields(("kind", "reason"), "\n  ")
_WITNESSED = _layout(['"kind": {}', '"witness": ' + _fields(("a", "b"), "\n    ")], "\n  ", "{{", "}}")
_LADDER_RUNG = _fields(LadderEntry._fields, "\n  ")
_CHAIN = _fields(("P", "Q"), "\n")
_TRACED = _fields(("P", "Q", "trace"), "\n")
_OUTCOME = _fields(("found", "a", "b", "checked", "bound"), "\n")


def _chain_rows(chain) -> list[str]:
    """The JSON lists of P's and Q's terms, as values of a top-level key."""
    return [_rows(sorted(p.items()), _TERM2, "\n  ") for p in chain]


def _rungs(entries):
    """The format arguments of each ladder rung."""
    return ((e.k, e.phi, e.psi, _FLAG[e.phi_defined], _FLAG[e.psi_defined]) for e in entries)


def _report_json(report: ObstructionReport) -> str:
    """json.dumps(report.to_json(), indent=2), byte for byte, written from
    the record through the templates above, one format call per row."""
    enc, first, fr, v = encode_basestring_ascii, report.first_obstruction, report.factor, report.verdict
    polys = _chain_rows(report.chain)
    polys += ["null" if p is None else _rows(sorted(p.items()), _TERM1, "\n  ")
              for p in (report.f, report.g)]
    if v.kind == "TwoSquares":
        verdict = _WITNESSED.format(enc(v.kind), *(enc(str(u)) for u in v.witness))
    else:
        verdict = _VERDICT.format(enc(v.kind), "null" if v.reason is None else enc(v.reason))
    return _REPORT.format(
        enc(str(report.word)), _layout(map(str, report.expsums), "\n  "), *polys,
        _rows(_rungs(report.ladder), _RUNG, "\n  "),
        "null" if first is None else _FIRST.format(first.k, first.value, enc(first.side)),
        "null" if fr is None else _FACTOR.format(*fr, '"P"', "true"),
        verdict)


def run(args: argparse.Namespace) -> int:
    """Carry out one parsed command line; the options' ranges are main's to check."""
    try:
        word = parse(args.word)
    except ParseError as exc:
        print(f"twosquares: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.command == "check":
        report = analyze(word, depth=args.depth, bound=args.bound)
        if args.format == "json":
            print(_report_json(report))
        else:
            print(render_report(report, args.side))
        return EXIT_UNKNOWN if report.verdict.kind == "Unknown" else EXIT_OK

    if args.command == "ladder":
        try:
            entries = ladder(word, depth=args.depth)
        except NotALoopError as exc:
            print(f"twosquares: error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if args.format == "json":
            print(_rows(_rungs(entries), _LADDER_RUNG, "\n"))
        else:
            print(f"word: {word}")
            for e in entries:
                print(_ladder_line(e))
            print("  (* = raw value, not conjugacy-invariant at this depth)")
        return EXIT_OK

    if args.command == "chain":
        chain = lift_chain(word)
        if args.format == "json":
            if args.trace:
                print(_TRACED.format(*_chain_rows(chain), _rows(lift_trace(word), _TERM1, "\n  ")))
            else:
                print(_CHAIN.format(*_chain_rows(chain)))
        else:
            print(f"word: {word}")
            print(f"P = {chain.P}")
            print(f"Q = {chain.Q}")
            if args.trace:
                print("trace: " + "".join(f"({i},{j})" for i, j in lift_trace(word)))
        return EXIT_OK

    if args.command == "search":
        outcome = search_with_stats(word, args.bound)
        w = outcome.witness
        if args.format == "json":
            ab = ("null", "null") if w is None else (encode_basestring_ascii(str(u)) for u in w)
            print(_OUTCOME.format(_FLAG[w is not None], *ab, outcome.checked, outcome.bound))
        elif w is not None:
            print(
                f"witness: a = {w.a}, b = {w.b}; {word} = a^2 b^2 "
                f"(checked {outcome.checked} candidates, bound {outcome.bound})"
            )
        else:
            print(f"inconclusive at bound {outcome.bound}: {outcome.describe_miss()}")
        return EXIT_OK

    raise ValueError(f"unknown command {args.command!r}")


def _ladder_line(e: LadderEntry) -> str:
    """One rung; * marks a raw value, not conjugacy-invariant at this depth."""
    phi_flag = "" if e.phi_defined else "*"
    psi_flag = "" if e.psi_defined else "*"
    return f"  k={e.k}  phi={e.phi}{phi_flag}  psi={e.psi}{psi_flag}"


def _factor_line(label: str, k: int, l: int, h11: int) -> str:
    status = "odd: obstructed" if h11 % 2 else "even: passes"
    return f"factor criterion on {label}: (x-1)^{k} (y-1)^{l} * h with h(1,1) = {h11} ({status})"


def render_report(report: ObstructionReport, side: str = "P") -> str:
    """The text report; side "both" adds Q's factor row, which the cycle
    law reads off P's (k, l, h11) as (k+1, l-1, -h11)."""
    lines = [f"word: {report.word}", f"exponent sums: {report.expsums}"]
    lines.append(f"P = {report.chain.P}")
    lines.append(f"Q = {report.chain.Q}")
    if report.f is None:
        lines.append("ladder and factor criterion skipped: word is outside the commutator subgroup")
    else:
        lines.append(f"f(y) = P(1,y) = {report.f.to_str('y')}")
        lines.append(f"g(x) = Q(x,1) = {report.g.to_str('x')}")
        lines.append(f"ladder (depth {len(report.ladder)}):")
        lines.extend(_ladder_line(e) for e in report.ladder)
        if not report.f:
            lines.append("f = 0 identically: every phi_k vanishes")
        if not report.g:
            lines.append("g = 0 identically: every psi_k vanishes")
        if report.first_obstruction is not None:
            lines.append(f"first obstruction: {report.first_obstruction.describe()}")
        else:
            lines.append(f"first obstruction: none up to depth {len(report.ladder)}")
        fr = report.factor
        if fr is not None:
            lines.append(_factor_line("P", *fr))
            if side == "both":
                lines.append(_factor_line("Q [derived extension]", fr.k + 1, fr.l - 1, -fr.h11))
        else:
            lines.append("factor criterion: inapplicable (zero coefficient)")
    if report.search is not None:
        if report.search.witness is not None:
            w = report.search.witness
            lines.append(f"witness: a = {w.a}, b = {w.b}")
        else:
            lines.append(f"search: {report.search.describe_miss()}")
    v = report.verdict
    if v.kind == "TwoSquares":  # Verdict guarantees the witness
        lines.append(f"verdict: TwoSquares (a = {v.witness.a}, b = {v.witness.b})")
    else:
        lines.append(f"verdict: {v.kind} ({v.reason})")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _scan(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    for option, least, most in (("depth", 1, MAX_DEPTH), ("bound", 0, float("inf"))):
        value = getattr(args, option, None)  # None: absent, or --bound left to oracle's default
        if value is not None and not least <= value <= most:
            limit = f">= {least}" if value < least else f"<= {most}"
            print(f"twosquares: error: --{option} must be {limit}", file=sys.stderr)
            return EXIT_USAGE
    try:
        code = run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone; buffered output goes to devnull at exit, not to a second raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
