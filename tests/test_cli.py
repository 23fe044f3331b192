"""Command-line behaviour: output formats, exit codes, determinism."""

import json

import pytest

from twosquares.cli import EXIT_OK, EXIT_UNKNOWN, EXIT_USAGE, CliConfig, main, run


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
        assert "inconclusive at bound 2" in out

    def test_json(self, capsys):
        _, out, _ = run_cli(capsys, "search", "--format", "json", "--bound", "3", "[x^2,y]")
        assert json.loads(out) == {
            "found": True, "a": "x", "b": "yXY", "checked": 2, "bound": 3,
        }


class TestErrors:
    def test_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "check", "x^")
        assert code == EXIT_USAGE
        assert "position" in err

    def test_non_decimal_exponent_is_parse_error(self, capsys):
        code, _, err = run_cli(capsys, "check", "x^²")
        assert code == EXIT_USAGE
        assert "parse error: expected an integer after '^' (position 2)" in err

    def test_unknown_flag(self, capsys):
        code, _, _ = run_cli(capsys, "check", "--frob", "[x,y]")
        assert code == EXIT_USAGE

    def test_unknown_command(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate", "[x,y]")
        assert code == EXIT_USAGE

    def test_missing_word(self, capsys):
        code, _, _ = run_cli(capsys, "check")
        assert code == EXIT_USAGE

    def test_dispatch_rejects_unknown_command(self):
        with pytest.raises(ValueError, match="unknown command 'frobnicate'"):
            run(CliConfig(command="frobnicate", word_expr="[x,y]"))


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
