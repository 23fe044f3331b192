"""Command-line front end.

Subcommands: check (full analysis and verdict), ladder (obstruction
values), chain (grid-lift coefficients, optionally with the lattice
trace), search (witness search only).  Exit codes: 0 when a verdict was
reached or the subcommand completed, 2 when check ends Unknown, 64 on
usage, parse, or precondition errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .cover import NotALoopError, lift_chain, lift_trace
from .obstructions import DEFAULT_DEPTH, ObstructionReport, analyze, ladder
from .oracle import search_with_stats
from .words import ParseError, parse

EXIT_OK = 0
EXIT_UNKNOWN = 2
EXIT_USAGE = 64


@dataclass
class CliConfig:
    command: str
    word_expr: str
    depth: int = DEFAULT_DEPTH
    bound: int | None = None  # None: use the word's length
    format: str = "text"
    side: str = "P"
    trace: bool = False


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="twosquares",
        description="Decide or obstruct: is a free-group word a product of two squares?",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("word", help="word expression, e.g. '[x,y]' or 'x^2yX^2Y'")
        p.add_argument("--format", choices=("text", "json"), default="text")
        return p

    p = add("check", "run all criteria plus the witness search")
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH, metavar="K")
    p.add_argument("--bound", type=int, default=None, metavar="L")
    p.add_argument("--side", choices=("P", "Q", "both"), default="P")

    p = add("ladder", "print the obstruction ladder")
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH, metavar="K")

    p = add("chain", "print the grid-lift chain coefficients")
    p.add_argument("--trace", action="store_true", help="list visited lattice points")

    p = add("search", "witness search only")
    p.add_argument("--bound", type=int, default=None, metavar="L")

    return parser


def _config_from_args(args: argparse.Namespace) -> CliConfig:
    cfg = CliConfig(command=args.command, word_expr=args.word, format=args.format)
    if hasattr(args, "depth"):
        if args.depth < 1:
            raise SystemExit(_usage_error("--depth must be >= 1"))
        cfg.depth = args.depth
    if hasattr(args, "bound") and args.bound is not None:
        if args.bound < 0:
            raise SystemExit(_usage_error("--bound must be >= 0"))
        cfg.bound = args.bound
    if hasattr(args, "side"):
        cfg.side = args.side
    if hasattr(args, "trace"):
        cfg.trace = args.trace
    return cfg


def _usage_error(message: str) -> int:
    print(f"twosquares: error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def run(config: CliConfig) -> int:
    try:
        word = parse(config.word_expr)
    except ParseError as exc:
        print(f"twosquares: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    bound = config.bound if config.bound is not None else len(word)

    if config.command == "check":
        report = analyze(word, depth=config.depth, bound=bound, side=config.side)
        if config.format == "json":
            _emit_json(report.to_json())
        else:
            print(render_report(report))
        return EXIT_UNKNOWN if report.verdict.kind == "Unknown" else EXIT_OK

    if config.command == "ladder":
        try:
            entries = ladder(word, depth=config.depth)
        except NotALoopError as exc:
            print(f"twosquares: error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if config.format == "json":
            _emit_json([e.to_json() for e in entries])
        else:
            print(f"word: {word}")
            for e in entries:
                print(
                    f"  k={e.k}  phi={e.phi}{_flag(e.phi_defined)}"
                    f"  psi={e.psi}{_flag(e.psi_defined)}"
                )
            print("  (* = raw value, not conjugacy-invariant at this depth)")
        return EXIT_OK

    if config.command == "chain":
        chain = lift_chain(word)
        if config.format == "json":
            payload = chain.to_json()
            if config.trace:
                payload["trace"] = [[i, j] for i, j in lift_trace(word)]
            _emit_json(payload)
        else:
            print(f"word: {word}")
            print(f"P = {chain.P}")
            print(f"Q = {chain.Q}")
            if config.trace:
                print("trace: " + "".join(f"({i},{j})" for i, j in lift_trace(word)))
        return EXIT_OK

    if config.command == "search":
        outcome = search_with_stats(word, bound)
        if config.format == "json":
            _emit_json(outcome.to_json())
        elif outcome.witness is not None:
            w = outcome.witness
            print(
                f"witness: a = {w.a}, b = {w.b}; {word} = a^2 b^2 "
                f"(checked {outcome.checked} candidates, bound {outcome.bound})"
            )
        else:
            print(
                f"inconclusive at bound {outcome.bound}: no witness with "
                f"|a| <= {outcome.bound} (checked {outcome.checked} candidates)"
            )
        return EXIT_OK

    raise ValueError(f"unknown command {config.command!r}")


def _flag(defined: bool) -> str:
    return "" if defined else "*"


def render_report(report: ObstructionReport) -> str:
    lines = [f"word: {report.word}", f"exponent sums: {report.expsums}"]
    lines.append(f"P = {report.chain.P}")
    lines.append(f"Q = {report.chain.Q}")
    if report.f is None:
        lines.append("obstruction tests skipped: word is outside the commutator subgroup")
    else:
        lines.append(f"f(y) = P(1,y) = {report.f.to_str('y')}")
        lines.append(f"g(x) = Q(x,1) = {report.g.to_str('x')}")
        lines.append(f"ladder (depth {report.depth}):")
        for e in report.ladder:
            lines.append(
                f"  k={e.k}  phi={e.phi}{_flag(e.phi_defined)}"
                f"  psi={e.psi}{_flag(e.psi_defined)}"
            )
        if not report.f:
            lines.append("f = 0 identically: every phi_k vanishes")
        if not report.g:
            lines.append("g = 0 identically: every psi_k vanishes")
        if report.first_obstruction is not None:
            lines.append(f"first obstruction: {report.first_obstruction.describe()}")
        else:
            lines.append(f"first obstruction: none up to depth {report.depth}")
        if report.factors:
            for fr in report.factors:
                derived = "" if fr.side == "P" else " [derived extension]"
                status = "odd: obstructed" if fr.obstructs else "even: passes"
                lines.append(
                    f"factor criterion on {fr.side}{derived}: "
                    f"(x-1)^{fr.k} (y-1)^{fr.l} * h with h(1,1) = {fr.h11} ({status})"
                )
        else:
            lines.append("factor criterion: inapplicable (zero coefficient)")
    if report.search is not None:
        if report.search.witness is not None:
            w = report.search.witness
            lines.append(f"witness: a = {w.a}, b = {w.b}")
        else:
            lines.append(
                f"search: no witness with |a| <= {report.search.bound} "
                f"({report.search.checked} candidates checked)"
            )
    v = report.verdict
    if v.kind == "TwoSquares":  # Verdict guarantees the witness
        lines.append(f"verdict: TwoSquares (a = {v.witness.a}, b = {v.witness.b})")
    else:
        lines.append(f"verdict: {v.kind} ({v.reason})")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        config = _config_from_args(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
