"""Golden corpus: exit code and stdout of ``cli.main``, byte for byte.

The corpus pins the rendered output of every subcommand on a fixed set
of words, so refactors below the CLI cannot change a verdict, a reason
or a single character of text or JSON.  Small cases are stored in full;
the batch over all loop words of length <= 8 stores one digest per
command line.  Regenerate (only for an intended output change) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from twosquares import enumerate_reduced, in_commutator_subgroup
from twosquares.cli import main

DATA = Path(__file__).with_name("golden_cli.json")

README_ARGVS = [
    ["check", "[x,y]"],
    ["check", "[x^2,y]"],
    ["check", "--side", "both", "[x,y]"],
    ["check", "--format", "json", "[x,y]"],
    ["ladder", "--depth", "5", "[x,y]^2"],
    ["chain", "--trace", "[x,y]"],
    ["search", "--bound", "6", "[x,y]^2"],
]

# w2 = y [x,y] y^-1 [x,y]^-1 and w = x w2 x^-1 w2^-1: f and g vanish
# identically, yet the factor criterion on P refutes w.
ALL_VANISHING = "x(y[x,y]Y[y,x])X(y[x,y]Y[y,x])^-1"

FULL_ARGVS = (
    README_ARGVS
    + [
        argv
        for m in range(1, 5)
        for n in range(1, 5)
        for argv in (
            ["check", f"[x^{m},y^{n}]"],
            ["check", "--format", "json", "--side", "both", f"[x^{m},y^{n}]"],
        )
    ]
    + [
        ["check", "--side", "both", "[[[[[[x,y],x],y],x],y],x]"],
        ["check", "--format", "json", "--side", "both", "[[[[[[x,y],x],y],x],y],x]"],
        ["check", "--side", "both", ALL_VANISHING],
        ["check", "--format", "json", ALL_VANISHING],
        ["ladder", "--format", "json", ALL_VANISHING],
        ["check", "--bound", "0", "[x^2,y]"],
        ["check", "--format", "json", "--bound", "3", "x^3yX^2yXY^2"],
        ["check", "x^2Y"],
        ["check", "--format", "json", "--bound", "4", "xy^3"],
        ["ladder", "x^2Y"],
        ["chain", "--format", "json", "--trace", "xy^3"],
        ["search", "--format", "json", "x^2Y"],
    ]
)

BATCH_FLAGS = {
    "text P": ["check", "--bound", "3", "--side", "P"],
    "text both": ["check", "--bound", "3", "--side", "both"],
    "json P": ["check", "--bound", "3", "--side", "P", "--format", "json"],
    "json both": ["check", "--bound", "3", "--side", "both", "--format", "json"],
}


def run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def loop_words() -> list[str]:
    return [str(g) for g in enumerate_reduced(8) if in_commutator_subgroup(g)]


def digest(code: int, stdout: str) -> str:
    return f"{code}:" + hashlib.sha256(stdout.encode()).hexdigest()[:20]


def generate() -> dict:
    full = []
    for argv in FULL_ARGVS:
        code, out = run(argv)
        full.append({"argv": argv, "exit": code, "stdout": out})
    words = loop_words()
    batch = {
        name: {w: digest(*run(flags + [w])) for w in words}
        for name, flags in BATCH_FLAGS.items()
    }
    return {"full": full, "batch": batch}


GOLDEN = json.loads(DATA.read_text()) if DATA.exists() else None


def test_corpus_shape():
    assert GOLDEN is not None, f"missing {DATA.name}"
    assert [case["argv"] for case in GOLDEN["full"]] == FULL_ARGVS
    words = loop_words()
    assert len(words) == 361
    for name in BATCH_FLAGS:
        assert list(GOLDEN["batch"][name]) == words


def test_full_cases_byte_identical():
    for case in GOLDEN["full"]:
        code, out = run(case["argv"])
        assert (code, out) == (case["exit"], case["stdout"]), case["argv"]


def test_loop_words_batch_byte_identical():
    for name, flags in BATCH_FLAGS.items():
        expected = GOLDEN["batch"][name]
        for w, want in expected.items():
            assert digest(*run(flags + [w])) == want, flags + [w]


if __name__ == "__main__":
    DATA.write_text(json.dumps(generate(), indent=1, ensure_ascii=False) + "\n")
    sys.exit(0)
