"""Command-line behaviour: output formats, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import test_golden
import twosquares
from test_obstructions import all_vanishing_word
from twosquares import Word, analyze, cli, ladder, lift_chain, lift_trace, parse, search_with_stats
from twosquares.cli import EXIT_BROKEN_PIPE, EXIT_OK, EXIT_UNKNOWN, EXIT_USAGE, main, run
from twosquares.obstructions import DEFAULT_DEPTH, Verdict

# the same package as this process, whether installed or on PYTHONPATH
PACKAGE_ENV = {**os.environ, "PYTHONPATH": str(Path(twosquares.__file__).parents[1])}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_odd_commutator(self, capsys):
        code, out, _ = run_cli(capsys, "check", "[x,y]")
        assert code == EXIT_OK
        assert "verdict: NotTwoSquares" in out
        assert "phi_1 = -1" in out

    def test_even_commutator(self, capsys):
        code, out, _ = run_cli(capsys, "check", "[x^2,y]")
        assert code == EXIT_OK
        assert "verdict: TwoSquares" in out
        assert "a = x, b = yXY" in out

    def test_unknown_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--bound", "0", "[x^2,y]")
        assert code == EXIT_UNKNOWN
        assert "verdict: Unknown" in out

    def test_q_side_marked_derived(self, capsys):
        _, out, _ = run_cli(capsys, "check", "--side", "both", "[x,y]")
        assert "factor criterion on Q [derived extension]" in out

    def test_side_q_refused(self, capsys):
        # Q's row is derived from P's report, so it is shown only beside it
        code, out, err = run_cli(capsys, "check", "--side", "Q", "[x,y]")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--side" in err

    def test_json_roundtrip_byte_identical(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--format", "json", "[x,y]")
        assert code == EXIT_OK
        assert json.dumps(json.loads(out), indent=2) == out.strip()

    def test_json_verdict_and_keys(self, capsys):
        _, out, _ = run_cli(capsys, "check", "--format", "json", "[x^2,y]")
        payload = json.loads(out)
        assert payload["verdict"] == {
            "kind": "TwoSquares",
            "witness": {"a": "x", "b": "yXY"},
        }
        assert payload["P"] == [[0, 0, 1], [0, 1, -1], [1, 0, 1], [1, 1, -1]]


class TestLadder:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "ladder", "--depth", "3", "[x,y]")
        assert code == EXIT_OK
        assert "k=1  phi=-1  psi=1" in out

    def test_json(self, capsys):
        _, out, _ = run_cli(capsys, "ladder", "--format", "json", "[x,y]")
        entries = json.loads(out)
        assert entries[0] == {
            "k": 1, "phi": -1, "psi": 1, "phi_defined": True, "psi_defined": True,
        }

    def test_non_loop_reports_exponent_sums(self, capsys):
        code, _, err = run_cli(capsys, "ladder", "x^2Y")
        assert code == EXIT_USAGE
        assert "(2, -1)" in err

    def test_bad_depth(self, capsys):
        code, _, _ = run_cli(capsys, "ladder", "--depth", "0", "[x,y]")
        assert code == EXIT_USAGE
        code, _, _ = run_cli(capsys, "ladder", "--depth", "10001", "[x,y]")
        assert code == EXIT_USAGE


class TestChain:
    def test_trace_line(self, capsys):
        code, out, _ = run_cli(capsys, "chain", "--trace", "[x,y]")
        assert code == EXIT_OK
        assert "P = 1 - y" in out
        assert "Q = -1 + x" in out
        assert "trace: (0,0)(1,0)(1,1)(0,1)(0,0)" in out

    def test_json(self, capsys):
        _, out, _ = run_cli(capsys, "chain", "--format", "json", "[x,y]")
        assert json.loads(out) == {
            "P": [[0, 0, 1], [0, 1, -1]],
            "Q": [[0, 0, -1], [1, 0, 1]],
        }

    def test_open_words_allowed(self, capsys):
        code, out, _ = run_cli(capsys, "chain", "x")
        assert code == EXIT_OK
        assert "P = 1" in out


class TestSearch:
    def test_hit(self, capsys):
        code, out, _ = run_cli(capsys, "search", "[x^2,y]")
        assert code == EXIT_OK
        assert "a = x, b = yXY" in out

    def test_inconclusive_wording(self, capsys):
        code, out, _ = run_cli(capsys, "search", "--bound", "2", "[x,y]")
        assert code == EXIT_OK
        assert out == "inconclusive at bound 2: no witness with |a| <= 2 (17 candidates checked)\n"

    def test_json(self, capsys):
        _, out, _ = run_cli(capsys, "search", "--format", "json", "--bound", "3", "[x^2,y]")
        assert json.loads(out) == {
            "found": True, "a": "x", "b": "yXY", "checked": 2, "bound": 3,
        }


class TestLayout:
    """cli._rows and cli._layout, which lay out every row of every JSON
    output, write a list of int rows exactly as json.dumps(indent=2) does."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda width: st.lists(
        st.lists(st.integers(-2**80, 2**80), min_size=width, max_size=width), max_size=6)))
    def test_int_rows(self, rows):
        width = len(rows[0]) if rows else 0
        top = cli._rows(rows, cli._layout(["{}"] * width, "\n  "), "\n")
        assert top == json.dumps(rows, indent=2)
        nested = cli._fields(("rows",), "\n").format(
            cli._rows(rows, cli._layout(["{}"] * width, "\n    "), "\n  "))
        assert nested == json.dumps({"rows": rows}, indent=2)


def random_loop(seed, length):
    """A seeded reduced loop word of about length letters: a random walk, closed straight."""
    rng = random.Random(seed)
    codes = [rng.randrange(4)]
    while len(codes) < length:
        code = rng.randrange(4)
        if code != codes[-1] ^ 1:
            codes.append(code)
    a = codes.count(0) - codes.count(1)
    b = codes.count(2) - codes.count(3)
    return Word(bytes(codes) + bytes([1 if a > 0 else 0]) * abs(a) + bytes([3 if b > 0 else 2]) * abs(b))


class TestSubcommandJson:
    """ladder, chain and search --format json are written from their
    records, and print exactly json.dumps(payload, indent=2) and a newline,
    the payload being the library's _asdict or to_json."""

    @staticmethod
    def assert_prints(capsys, argv, payload):
        assert cli.main(list(argv)) == EXIT_OK
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"

    def assert_ladder(self, capsys, expr, depth=DEFAULT_DEPTH):
        payload = [e._asdict() for e in ladder(parse(expr), depth=depth)]
        self.assert_prints(capsys, ("ladder", "--format", "json", "--depth", str(depth), expr), payload)
        return payload

    def assert_chain(self, capsys, expr):
        word = parse(expr)
        payload = lift_chain(word).to_json()
        self.assert_prints(capsys, ("chain", "--format", "json", expr), payload)
        payload["trace"] = [[i, j] for i, j in lift_trace(word)]
        self.assert_prints(capsys, ("chain", "--format", "json", "--trace", expr), payload)

    def assert_search(self, capsys, expr, bound):
        payload = search_with_stats(parse(expr), bound).to_json()
        self.assert_prints(capsys, ("search", "--format", "json", "--bound", str(bound), expr), payload)
        return payload

    def test_golden_loop_words(self, capsys):
        words = test_golden.loop_words()
        assert len(words) == 361
        for w in words:
            self.assert_ladder(capsys, w)
            self.assert_chain(capsys, w)

    def test_subcommand_payloads(self, capsys):
        # the identity; Q = 0; a non-loop word with inverse ends; a loop
        # lifted from its cyclic core; a ladder wider than 64 bits; a long loop
        long_loop = str(random_loop(20261020, 40000))
        for expr in ("e", "x^2", "xy^5X", "x^3y^2[x,y]Y^2X^3", "[x^1000,y^1000]", long_loop):
            self.assert_chain(capsys, expr)
        assert not lift_chain(parse("x^2")).Q
        for expr in ("e", "x^3y^2[x,y]Y^2X^3", long_loop):
            self.assert_ladder(capsys, expr)
        rungs = self.assert_ladder(capsys, "[x^1000,y^1000]")
        assert max(abs(e["phi"]) for e in rungs).bit_length() == 75
        self.assert_ladder(capsys, "[x^1000,y^1000]", depth=200)
        # a hit with a = e, a miss, and bound 0
        assert self.assert_search(capsys, "[x,y]^2", 6)["a"] == "e"
        assert not self.assert_search(capsys, "[x,y]", 2)["found"]
        assert self.assert_search(capsys, "[x^2,y]", 0) == {
            "found": False, "a": None, "b": None, "checked": 1, "bound": 0}


class TestReportJson:
    """check --format json is written from the report record by
    cli._report_json, and is exactly json.dumps(report.to_json(), indent=2)."""

    @staticmethod
    def assert_as_json_dumps(report):
        assert cli._report_json(report) == json.dumps(report.to_json(), indent=2)

    @staticmethod
    def assert_check_prints(report, *argv):
        """check --format json argv prints the report's JSON, whatever --side is."""
        code, out, _ = outputs(["check", "--format", "json", *argv])
        assert code == (EXIT_UNKNOWN if report.verdict.kind == "Unknown" else EXIT_OK), argv
        assert out == json.dumps(report.to_json(), indent=2) + "\n", argv

    @pytest.mark.parametrize("side", ["P", "both"])
    def test_golden_loop_words(self, side):
        words = test_golden.loop_words()
        assert len(words) == 361
        for w in words:
            report = analyze(parse(w), bound=3)
            self.assert_as_json_dumps(report)
            self.assert_check_prints(report, "--bound", "3", "--side", side, w)

    def test_json_same_at_every_side(self):
        # --side picks text rows only: the JSON is P's report either way
        for w in test_golden.loop_words():
            both = outputs(["check", "--format", "json", "--side", "both", w])
            assert both == outputs(["check", "--format", "json", w]), w

    @pytest.mark.parametrize("depth", [1, 20])
    @pytest.mark.parametrize("side", ["P", "both"])
    def test_edge_words(self, depth, side):
        # the identity; non-loop words with an odd sum, with even sums, and
        # with sums 0 mod 4 and an odd area; a word with f = 0; a ladder
        # wider than 64 bits; and a word of each verdict kind
        exprs = ("e", "x", "x^2y^2", "x^3yxY", str(all_vanishing_word()), "[x^1000,y^1000]",
                 "[x,y]", "[x^2,y]", "x^3yX^2yXY^2")
        kinds = set()
        for expr, bound in [(e, 2) for e in exprs] + [("[x^2,y]", 0)]:
            report = analyze(parse(expr), depth=depth, bound=bound)
            self.assert_as_json_dumps(report)
            self.assert_check_prints(report, "--depth", str(depth), "--bound", str(bound),
                                     "--side", side, expr)
            kinds.add(report.verdict.kind)
        assert kinds == {"TwoSquares", "NotTwoSquares", "Unknown"}
        assert not analyze(all_vanishing_word(), bound=0).f
        widest = analyze(parse("[x^1000,y^1000]"), bound=0)  # at the default depth
        self.assert_as_json_dumps(widest)
        self.assert_check_prints(widest, "--bound", "0", "--side", side, "[x^1000,y^1000]")
        assert max(abs(e.phi) for e in widest.ladder).bit_length() == 75

    @pytest.mark.parametrize("kind", ["Unknown", "NotTwoSquares"])
    def test_verdict_without_reason(self, kind):
        # a Verdict may be built without a reason, which json.dumps writes null
        report = analyze(parse("[x,y]"), bound=2)._replace(verdict=Verdict(kind))
        assert report.verdict.reason is None
        self.assert_as_json_dumps(report)
        assert '"reason": null' in cli._report_json(report)

    @pytest.mark.parametrize("argv", [
        ("--bound", "3", "[x^2,y]"),
        ("--bound", "0", "[x^2,y]"),
        ("[x,y]",),
        ("--side", "both", "--depth", "20", "[x,y]^2"),
        ("--side", "P", "--depth", "1", "x^3yX^2yXY^2"),
        ("x^3yxY",),
    ])
    def test_check_prints_it(self, capsys, argv):
        options = dict(zip(argv[:-1:2], argv[1:-1:2]))
        bound = options.get("--bound")
        report = analyze(parse(argv[-1]), depth=int(options.get("--depth", DEFAULT_DEPTH)),
                         bound=None if bound is None else int(bound))
        _, out, _ = run_cli(capsys, "check", "--format", "json", *argv)
        assert out == json.dumps(report.to_json(), indent=2) + "\n"


class TestErrors:
    def test_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "check", "x^")
        assert code == EXIT_USAGE
        assert "position" in err

    def test_non_decimal_exponent_is_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "check", "x^²")
        assert code == EXIT_USAGE
        assert "parse error: expected an integer after '^' (position 2)" in err

    def test_word_over_length_cap(self, capsys):
        # passes the exponent cap, so only the length cap stands between
        # this input and a 2^62-letter allocation
        code, _, err = run_cli(capsys, "check", "x^4611686018427387904")
        assert code == EXIT_USAGE
        assert "parse error: word longer than 1048576 letters (position 0)" in err

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "check", "--frob", "[x,y]")
        assert code == EXIT_USAGE

    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate", "[x,y]")
        assert code == EXIT_USAGE

    def test_missing_word(self, capsys):
        code, _, _ = run_cli(capsys, "check")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv, message", [
        (("check", "--depth", "0"), "--depth must be >= 1"),
        (("ladder", "--depth", "0"), "--depth must be >= 1"),
        (("check", "--bound", "-1"), "--bound must be >= 0"),
        (("search", "--bound", "-1"), "--bound must be >= 0"),
        (("check", "--depth", "10001"), "--depth must be <= 10000"),
        (("ladder", "--depth", "100000000"), "--depth must be <= 10000"),
    ])
    def test_option_range_errors(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv, "[x,y]")
        assert (code, out, err) == (EXIT_USAGE, "", f"twosquares: error: {message}\n")

    def test_option_range_checked_before_the_word(self, capsys):
        code, _, err = run_cli(capsys, "check", "--depth", "0", "--bound", "-1", "x^")
        assert (code, err) == (EXIT_USAGE, "twosquares: error: --depth must be >= 1\n")
        code, _, err = run_cli(capsys, "check", "--depth", "100000000", "x^")
        assert (code, err) == (EXIT_USAGE, "twosquares: error: --depth must be <= 10000\n")

    def test_dispatch_rejects_unknown_command(self):
        with pytest.raises(ValueError, match="unknown command 'frobnicate'"):
            run(argparse.Namespace(command="frobnicate", word="[x,y]"))


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("check", "--format", "json", "[x^2,y^3]"),
        ("ladder", "--format", "json", "[x,y]^2"),
        ("chain", "--format", "json", "--trace", "[x^3,y]"),
        ("search", "--format", "json", "[x^2,y^2]"),
    ])
    def test_repeat_runs_identical(self, capsys, argv):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second


class TestParserReuse:
    """main() builds its argument parser at most once per process and reuses it."""

    def test_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_options_do_not_leak_between_calls(self, capsys):
        expected = next(
            case for case in test_golden.GOLDEN["full"] if case["argv"] == ["check", "[x,y]"]
        )
        # options set through the scan, then through argparse, then through
        # argparse abbreviations; of the two argv after each, the scan reads
        # the first and argparse the one with "--"
        scanned = ("check", "--side", "both", "--depth", "2", "--bound", "1", "--format", "json", "[x,y]")
        parsed = ("check", "--side=both", "--depth=2", "--bound=1", "--format=json", "[x,y]")
        abbreviated = ("check", "--si", "both", "--dep", "2", "--form", "json", "[x,y]")
        assert cli._scan(scanned) is not None
        assert cli._scan(parsed) is None and cli._scan(abbreviated) is None
        for before in (scanned, parsed, scanned, abbreviated):
            for after in (("check", "[x,y]"), ("check", "--", "[x,y]")):
                run_cli(capsys, *before)
                code, out, _ = run_cli(capsys, *after)
                assert (code, out) == (expected["exit"], expected["stdout"]), (before, after)

    def test_golden_corpus_in_reverse_order(self):
        for case in reversed(test_golden.GOLDEN["full"]):
            assert test_golden.run(case["argv"]) == (case["exit"], case["stdout"]), case["argv"]


def outputs(argv):
    """(exit, stdout, stderr) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# The option vocabulary of the subcommands, written out here rather than read
# from cli, so that a wrong entry in cli's option table shows up as a mismatch.
OPTIONS = {
    "check": ("--format", "--depth", "--bound", "--side"),
    "ladder": ("--format", "--depth"),
    "chain": ("--format", "--trace"),
    "search": ("--format", "--bound"),
}
# values that int() or the choices accept, then values that they refuse or
# that start with "-"; small ints only, as a bound past 3 would make the
# search dominate the run time
INTS = ("0", "2", "+1", " 3", "3 ", "0_2", "\u0662", "\uff13")
VALUES = {
    "--format": (("text", "json"), ("xml", "JSON", " json", "")),
    "--side": (("P", "both"), ("Q", "p", "R", "Both", "-P")),
    "--depth": (INTS, ("1 2", "1__2", "-1", "-0", "x", "", "2.0")),
    "--bound": (INTS, ("1 2", "1__2", "-1", "-0", "x", "", "2.0")),
}
WORDS = ("", "-x", "[x,y]")
ABBREVIATED = ("--form", "--f", "--dep", "--d", "--b", "--bou", "--s", "--sid", "--tr", "--t")
TOKENS = tuple(dict.fromkeys((
    *(name for names in OPTIONS.values() for name in names), *ABBREVIATED,
    *(f"{name}={value}" for name in ("--format", "--depth", "--bound", "--side", "--trace", "--form")
      for value in ("json", "2", "both", "", "-1")),
    *(value for pair in VALUES.values() for values in pair for value in values),
    *WORDS, "--", "-h", "--help", "check", "--frob",
)))


@st.composite
def full_name_argv(draw, plain):
    """A subcommand, then some of its options by their full names and words in any order.
    If plain, each value is one the scan accepts and there is one word."""
    command = draw(st.sampled_from(sorted(OPTIONS)))
    parts = []
    for name in draw(st.lists(st.sampled_from(OPTIONS[command]), max_size=4)):
        if name == "--trace":
            parts.append([name])
        else:
            accepted, refused = VALUES[name]
            parts.append([name, draw(st.sampled_from(accepted if plain else accepted + refused))])
    words = [draw(st.sampled_from(WORDS[::2]))] if plain else draw(st.lists(st.sampled_from(WORDS), max_size=2))
    for word in words:
        parts.insert(draw(st.integers(0, len(parts))), [word])
    return [command, *(token for part in parts for token in part)]


ARGVS = (
    full_name_argv(plain=True)
    | full_name_argv(plain=False)
    | st.builds(lambda head, rest: [head, *rest],
                st.sampled_from([*OPTIONS, "chec", "frob", "-h", "--format"]),
                st.lists(st.sampled_from(TOKENS), max_size=6))
    | st.lists(st.sampled_from(TOKENS), max_size=3)
)


class TestScan:
    """_scan returns parse_args's Namespace or None, and main's output does not depend on it."""

    @settings(max_examples=600, deadline=None)
    @given(ARGVS)
    def test_scan_is_parse_args_or_none(self, argv):
        scanned = cli._scan(argv)
        if scanned is not None:
            assert scanned == cli._build_parser().parse_args(argv)

    @settings(max_examples=300, deadline=None)
    @given(ARGVS)
    def test_main_same_through_argparse(self, argv):
        expected = outputs(argv)
        with mock.patch.object(cli, "_scan", lambda argv: None):
            assert outputs(argv) == expected

    def test_golden_corpus_through_argparse(self):
        for case in test_golden.GOLDEN["full"]:
            expected = outputs(case["argv"])
            assert expected[:2] == (case["exit"], case["stdout"]), case["argv"]
            with mock.patch.object(cli, "_scan", lambda argv: None):
                assert outputs(case["argv"]) == expected, case["argv"]

    def test_scan_reads_every_golden_and_workload_argv(self):
        # every golden argv (the README command lines among them), and the
        # benchmark's check --bound N [--format json] W: a scan that refused
        # these would send every call back through argparse
        words = ["[x,y]", "x^2yX^2Y", "xy^3XY^2xYX^2y^2", ""]
        argvs = [
            *(case["argv"] for case in test_golden.GOLDEN["full"]),
            *(flags + [w] for flags in test_golden.BATCH_FLAGS.values() for w in words),
            *(["check", "--bound", str(n), *fmt, w]
              for n in (0, 4, 12) for fmt in ((), ("--format", "json")) for w in words),
        ]
        parser = cli._build_parser()
        for argv in argvs:
            scanned = cli._scan(argv)
            assert scanned is not None, argv
            assert scanned == parser.parse_args(argv), argv

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["check"], ["check", "-h", "[x,y]"], ["check", "--form", "json", "[x,y]"],
        ["check", "--format=json", "[x,y]"], ["check", "--", "[x,y]"], ["check", "--bound", "-1", "[x,y]"],
        ["check", "--bound", "four", "[x,y]"], ["check", "--side", "R", "[x,y]"], ["check", "[x,y]", "[x,y]"],
        ["check", "-x"], ["check", "--trace", "[x,y]"], ["chain", "--trace=1", "[x,y]"], ["chec", "[x,y]"],
        ["check", "--bound"], ["--format", "json", "check", "[x,y]"],
    ])
    def test_scan_leaves_the_rest_to_argparse(self, argv):
        assert cli._scan(argv) is None


class TestFreshProcess:
    def test_import_loads_no_dataclasses(self):
        # -S: no site hooks, so only the package's own imports count
        code = "import sys, twosquares.cli; print('dataclasses' in sys.modules)"
        out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                             text=True, env=PACKAGE_ENV, check=True).stdout
        assert out == "False\n"

    def test_plain_check_builds_no_parser(self):
        code = (
            "import contextlib, io; from twosquares import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['check', '[x,y]'])\n"
            "print(code, cli._build_parser.cache_info().currsize)"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=PACKAGE_ENV, check=True).stdout
        assert out == "0 0\n"

    def test_closed_stdout_exits_141_quietly(self):
        # about 250 kB of output, past a pipe's 64 kB buffer, so the
        # command is still writing when the reader closes its end
        argv = [sys.executable, "-m", "twosquares.cli", "ladder", "--depth", "10000", "[x,y]"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=PACKAGE_ENV) as proc:
            assert proc.stdout.readline() == b"word: xyXY\n"
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert (code, err) == (EXIT_BROKEN_PIPE, b"")

    def test_default_search_stops_at_twelve(self):
        # the closed-form witness of [x^50,y^50] has a = x^25; the default
        # bound stops at 12, so check ends Unknown in seconds, not weeks
        argv = [sys.executable, "-m", "twosquares.cli", "check", "[x^50,y^50]"]
        start = time.perf_counter()
        out = subprocess.run(argv, capture_output=True, text=True, env=PACKAGE_ENV, timeout=60)
        elapsed = time.perf_counter() - start
        assert out.returncode == EXIT_UNKNOWN
        assert out.stdout.splitlines()[-1] == (
            "verdict: Unknown (no odd obstruction up to depth 8; "
            "no witness with |a| <= 12 (1062881 candidates checked))"
        )
        assert elapsed < 15, f"{elapsed:.1f} s >= 15 s"
