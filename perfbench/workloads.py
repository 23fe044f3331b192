"""Seeded inputs for the three workloads.

The program under test receives only the expression strings built here.
Each item also carries what the checks need: the benchmark's own
reduction of the expression, the size class used by the growth probes,
and the known answer where the word's family has one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from answer_key import (
    inverse,
    load_loops_key,
    power_commutator_kind,
    reduce_word,
    run_length,
)

# Why each workload exists; BENCHMARK.json carries the same sentences.
WHY = {
    "loops": "every loop word of length <= 10 through analyze(bound=5) and JSON: "
    "batch throughput, search-bound, exact verdict tally as answer key",
    "long": "seeded loop words of 2k-40k letters through analyze(bound=2), JSON "
    "and text: parse, lift, Laurent and rendering do the work, search does little",
    "cli": "README command lines and seeded loop words of length 12-40 through "
    "cli.main in-process: the same layers entered by other routes",
}

LOOPS_MAX_LEN = 10
LOOPS_BOUND = 5
LONG_BOUND = 2
# A geometric ladder: many sizes keep the median word from jumping
# between families of very different cost when the seed changes.
LONG_SIZES = tuple(int(round(2000 * 20 ** (i / 19), -2)) for i in range(20))  # 2000 .. 40000
# [x^m, y^n] strips to a quotient with m*n terms, so m and n stay small
# enough for that quotient to fit in memory; the length comes from h and k.
LONG_CORE_EXP = (48, 72)
CLI_WORDS = 600
CLI_BOUND = 4
CLI_LEN = (12, 40)
DEPTH = 8

# Command lines from the README, as argv lists.
README_COMMANDS = (
    ("check", "[x,y]"),
    ("check", "[x^2,y]"),
    ("check", "--side", "both", "[x,y]"),
    ("check", "--format", "json", "[x,y]"),
    ("ladder", "--depth", "5", "[x,y]^2"),
    ("chain", "--trace", "[x,y]"),
    ("search", "--bound", "6", "[x,y]^2"),
)
# Known answers of the README words, from the [x^m, y^n] family.
README_EXPECTED = {"[x,y]": power_commutator_kind(1, 1, 1), "[x^2,y]": power_commutator_kind(2, 1, 1)}
README_LETTERS = {"[x,y]": "xyXY", "[x^2,y]": "xxyXXY", "[x,y]^2": "xyXYxyXY"}


@dataclass(frozen=True)
class Item:
    expr: str  # the word expression sent to the program
    letters: str  # the benchmark's own reduction of expr
    size_class: int  # nominal length for the growth probes; 0 leaves the word out
    bound: int = 0
    argv: tuple[str, ...] = ()  # cli workload: the command line
    expected: str | None = None  # known answer of the word's family
    pinned: str | None = None  # loops key entry


def make(workload: str, seed: int) -> list[Item]:
    rng = random.Random(f"{workload}:{seed}")
    items = _BUILDERS[workload](rng)
    rng.shuffle(items)
    return items


def loop_words(max_len: int) -> list[str]:
    """Every reduced word of length <= max_len with zero exponent sums."""
    out = []
    step = {"x": (1, 0), "X": (-1, 0), "y": (0, 1), "Y": (0, -1)}

    def extend(prefix: str, i: int, j: int):
        if i == 0 and j == 0:
            out.append(prefix)
        left = max_len - len(prefix)
        for ch, (di, dj) in step.items():
            if prefix and prefix[-1] == inverse(ch):
                continue
            if abs(i + di) + abs(j + dj) <= left - 1:
                extend(prefix + ch, i + di, j + dj)

    extend("", 0, 0)
    return out


def _loops(rng: random.Random) -> list[Item]:
    """Every loop word of length <= 10 (2601 words, identity included).

    The batch-throughput number: analyze(bound=5, depth=8) then JSON.  The
    search does about 3/4 of the work and the per-word obstruction overhead
    the rest; parsing does almost none.  The verdict tally is exact, so the
    pinned key doubles as the answer key.  The seed sets only the order.
    """
    key = load_loops_key()
    return [
        Item(run_length(w), w, len(w), LOOPS_BOUND, pinned=key[w])
        for w in loop_words(LOOPS_MAX_LEN)
    ]


def random_reduced(rng: random.Random, n: int) -> str:
    out: list[str] = []
    while len(out) < n:
        ch = rng.choice("xXyY")
        if not out or out[-1] != inverse(ch):
            out.append(ch)
    return "".join(out)


def random_loop(rng: random.Random, n: int) -> str:
    """A reduced loop word of about n letters: a random walk, closed straight."""
    w = random_reduced(rng, n)
    a = w.count("x") - w.count("X")
    b = w.count("y") - w.count("Y")
    return reduce_word(w + ("X" * a if a > 0 else "x" * -a) + ("Y" * b if b > 0 else "y" * -b))


def random_loop_pair(rng: random.Random, n: int) -> tuple[str, str]:
    """A random loop word w and w [x,y].

    phi_1 is additive and phi_1([x,y]) = -1, so exactly one word of the
    pair has odd phi_1.  Whether a random loop word is settled depends
    mostly on that parity; pairing keeps the decided share of a workload
    from swinging with the seed (unpaired, it moved by about 10% between
    seeds), while each word stays a random loop word.
    """
    w = random_loop(rng, n)
    return w, reduce_word(w + "xyXY")


def _long(rng: random.Random) -> list[Item]:
    """Loop words of about 2k-40k letters, as run-length expressions.

    Random loop words, long conjugates h [x^m,y^n]^k h^-1 whose answer is
    known from the parity of m*n*k, and iterated commutators with deep
    strip depth.  Parse, lift, Laurent and rendering do the work; the
    search at bound 2 checks at most 17 candidates per word.
    """
    items = []
    for i, size in enumerate(LONG_SIZES):
        for w in random_loop_pair(rng, size):
            items.append(Item(run_length(w), w, size, LONG_BOUND))
        items.append(_conjugated_core(rng, size, odd=i % 2 == 0))
        items.append(_iterated_commutator(rng, size))
    return items


def _conjugated_core(rng: random.Random, size: int, odd: bool) -> Item:
    """h [x^m, y^n]^k h^-1 with a known answer: NotTwoSquares iff m*n*k odd."""
    lo, hi = LONG_CORE_EXP
    m = rng.randrange(lo, hi + 1)
    n = rng.randrange(lo, hi + 1)
    if odd:
        m |= 1
        n |= 1
        k = max(1, (size // 2) // (2 * (m + n))) | 1
    else:
        m &= ~1
        k = 1
    core = ("x" * m + "y" * n + "X" * m + "Y" * n) * k
    h = random_reduced(rng, max(0, (size - len(core)) // 2))
    w = reduce_word(h + core + inverse(h))
    # Its Laurent cost is set by m*n, not by its length: no growth bucket.
    return Item(run_length(w), w, 0, LONG_BOUND, expected=power_commutator_kind(m, n, k))


def _iterated_commutator(rng: random.Random, size: int) -> Item:
    """[...[[x,y],g1],g2...] with letters g_i, conjugated up to about size letters."""
    c = "xyXY"
    while True:
        g = rng.choice("xXyY")
        nxt = reduce_word(c + g + inverse(c) + inverse(g))
        if len(nxt) > size:
            break
        c = nxt
    h = random_reduced(rng, (size - len(c)) // 2)
    w = reduce_word(h + c + inverse(h))
    return Item(run_length(w), w, size, LONG_BOUND)


def _cli(rng: random.Random) -> list[Item]:
    """The README command lines, then loop words of length 12-40 under
    check --bound 4, alternately in text and JSON.

    cli.main enters the same layers by other routes: ladder re-lifts and
    search skips the obstructions, so a change that speeds analyze but
    slows those routes shows up here.
    """
    items = []
    for argv in README_COMMANDS:
        expr = argv[-1]
        letters = reduce_word(README_LETTERS[expr])
        expected = README_EXPECTED.get(expr) if argv[0] == "check" else None
        items.append(Item(expr, letters, len(letters), argv=argv, expected=expected))
    lo, hi = CLI_LEN
    for i in range(CLI_WORDS // 2):
        while True:
            pair = random_loop_pair(rng, rng.randrange(lo, hi + 1))
            if all(lo <= len(w) <= hi for w in pair):
                break
        fmt = ("--format", "json") if i % 2 else ()
        for w in pair:
            argv = ("check", "--bound", str(CLI_BOUND), *fmt, run_length(w))
            items.append(Item(argv[-1], w, len(w), CLI_BOUND, argv=argv))
    return items


_BUILDERS = {"loops": _loops, "long": _long, "cli": _cli}
