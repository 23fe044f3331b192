"""Correctness checks that do not use the code under test.

Words are plain strings over x, X, y, Y (X = x^-1, Y = y^-1).  Free
reduction, inversion and the expansion of run-length expressions are
written here from scratch, so a witness is re-verified without
``twosquares.kernel`` and a report's word is compared with the
benchmark's own reduction of the expression it sent.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

TWO = "TwoSquares"
NOT = "NotTwoSquares"
UNKNOWN = "Unknown"
KINDS = (NOT, TWO, UNKNOWN)

# The verdict tally of the seed code on every loop word of length <= 10
# at bound 5, depth 8.  Decided verdicts may never flip; Unknown may shrink.
LOOPS_TALLY = {NOT: 1576, TWO: 785, UNKNOWN: 240}
LOOPS_KEY_PATH = Path(__file__).with_name("loops_key.txt")

_PARTNER = {"x": "X", "X": "x", "y": "Y", "Y": "y"}
_INVERSE = str.maketrans("xXyY", "XxYy")
_TERM = re.compile(r"([xXyY])(?:\^(-?\d+))?")


def reduce_word(letters: str) -> str:
    """Cancel adjacent inverse pairs until none is left."""
    out: list[str] = []
    for ch in letters:
        if out and out[-1] == _PARTNER[ch]:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def inverse(letters: str) -> str:
    return letters[::-1].translate(_INVERSE)


def run_length(letters: str) -> str:
    """Spell a letter string as letter^exponent runs, e.g. 'xxY' -> 'x^2Y'."""
    if not letters:
        return "e"
    parts = []
    i = 0
    while i < len(letters):
        j = i
        while j < len(letters) and letters[j] == letters[i]:
            j += 1
        parts.append(letters[i] if j - i == 1 else f"{letters[i]}^{j - i}")
        i = j
    return "".join(parts)


def expand(expr: str) -> str:
    """Letters of a run-length expression ('e' is the identity), unreduced."""
    if expr == "e":
        return ""
    out = []
    pos = 0
    for m in _TERM.finditer(expr):
        if m.start() != pos:
            break
        n = int(m.group(2) or 1)
        ch = m.group(1)
        out.append(ch * n if n >= 0 else _PARTNER[ch] * -n)
        pos = m.end()
    if pos != len(expr):
        raise ValueError(f"not a run-length expression: {expr[:40]!r}")
    return "".join(out)


def witness_problem(word: str, a_expr: str, b_expr: str) -> str | None:
    """None when a^2 b^2 reduces to word, else a description of the failure."""
    try:
        a = expand(a_expr)
        b = expand(b_expr)
    except ValueError as exc:
        return f"unreadable witness: {exc}"
    if reduce_word(a + a + b + b) != word:
        return f"witness a = {a_expr[:40]}, b = {b_expr[:40]} does not multiply to the word"
    return None


def power_commutator_kind(m: int, n: int, k: int) -> str:
    """Known answer for h [x^m, y^n]^k h^-1 when k = 1 or m*n is odd.

    phi_1 = -m*n*k, so m*n*k odd proves NotTwoSquares; for k = 1 and m*n
    even, [x^m, y^n] has a closed-form a^2 b^2 witness, and conjugating
    it keeps it a product of two squares.
    """
    if k != 1 and (m * n) % 2 == 0:
        raise ValueError("answer not known for k > 1 with m*n even")
    return NOT if (m * n * k) % 2 else TWO


def load_loops_key(path: Path = LOOPS_KEY_PATH) -> dict[str, str]:
    """Pinned verdict per loop word, keyed by its letters."""
    key = {}
    for line in path.read_text().splitlines():
        letters, kind = line.split()
        key["" if letters == "e" else letters] = kind
    return key


def verdict_problems(word: str, kind: str, witness, expected=None, pinned=None) -> list[str]:
    """Every way a verdict on word contradicts the answer key.

    witness is (a_expr, b_expr) or None; expected is the known answer of
    the word's family; pinned is the loops key entry.
    """
    problems = []
    if kind not in KINDS:
        problems.append(f"unknown verdict kind {kind!r}")
    if kind == TWO:
        if witness is None:
            problems.append("TwoSquares without a witness")
        else:
            p = witness_problem(word, *witness)
            if p:
                problems.append(p)
    if expected is not None and kind != UNKNOWN and kind != expected:
        problems.append(f"verdict {kind} contradicts the known answer {expected}")
    if pinned is not None and pinned != UNKNOWN and kind != pinned:
        problems.append(f"verdict flipped from {pinned} to {kind}")
    return problems


def read_json_report(text: str):
    """(word expression, verdict kind, witness or None) from check --format json."""
    obj = json.loads(text)
    verdict = obj["verdict"]
    w = verdict.get("witness")
    return obj["word"], verdict["kind"], None if w is None else (w["a"], w["b"])


_VERDICT_TWO = re.compile(r"verdict: TwoSquares \(a = (\S+), b = (\S+)\)$")
_VERDICT_OTHER = re.compile(r"verdict: (\w+) \(")


def read_text_report(text: str):
    """(word expression, verdict kind, witness or None) from the text report."""
    lines = text.rstrip("\n").split("\n")
    if not lines[0].startswith("word: "):
        raise ValueError("text report does not start with the word")
    word = lines[0][len("word: "):]
    m = _VERDICT_TWO.match(lines[-1])
    if m:
        return word, TWO, (m.group(1), m.group(2))
    m = _VERDICT_OTHER.match(lines[-1])
    if not m:
        raise ValueError("text report does not end with a verdict")
    return word, m.group(1), None
