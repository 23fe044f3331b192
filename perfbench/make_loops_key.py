"""Write loops_key.txt: the pinned verdict of every loop word of length <= 10.

    python3 perfbench/make_loops_key.py

The key records what the code answered when the benchmark was written
(analyze at bound 5, depth 8), after checking it without the code under
test: every TwoSquares witness is re-verified by the benchmark's own
reduction, and no NotTwoSquares word has a witness with |a| <= 5 under
the benchmark's own search.  The run checks decided verdicts against the
key, so regenerating it would hide a flipped verdict.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import answer_key  # noqa: E402
import workloads  # noqa: E402
from twosquares import analyze, parse  # noqa: E402


def reduced_words(max_len: int) -> list[str]:
    words = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [w + ch for w in frontier for ch in "xXyY" if not w or w[-1] != answer_key.inverse(ch)]
        words += frontier
    return words


def is_square(r: str) -> bool:
    lo, hi = 0, len(r) - 1
    while lo < hi and r[lo] == answer_key.inverse(r[hi]):
        lo += 1
        hi -= 1
    core = r[lo:hi + 1]
    half = len(core) // 2
    return len(core) % 2 == 0 and core[:half] == core[half:]


def has_witness(word: str, candidates: list[str]) -> bool:
    for a in candidates:
        ia = answer_key.inverse(a)
        if is_square(answer_key.reduce_word(ia + ia + word)):
            return True
    return False


def main():
    candidates = reduced_words(workloads.LOOPS_BOUND)
    lines = []
    tally = dict.fromkeys(answer_key.KINDS, 0)
    for w in workloads.loop_words(workloads.LOOPS_MAX_LEN):
        report = analyze(parse(answer_key.run_length(w)), depth=workloads.DEPTH, bound=workloads.LOOPS_BOUND)
        kind = report.verdict.kind
        witness = report.verdict.witness
        pair = None if witness is None else (str(witness.a), str(witness.b))
        problems = answer_key.verdict_problems(w, kind, pair)
        if kind == answer_key.NOT and has_witness(w, candidates):
            problems.append("NotTwoSquares, yet the benchmark's search finds a witness")
        if kind == answer_key.UNKNOWN and has_witness(w, candidates):
            problems.append("Unknown, yet the benchmark's search finds a witness")
        if problems:
            sys.exit(f"{w}: {problems}")
        tally[kind] += 1
        lines.append(f"{w or 'e'} {kind}\n")
    if tally != answer_key.LOOPS_TALLY:
        sys.exit(f"tally {tally} differs from {answer_key.LOOPS_TALLY}")
    answer_key.LOOPS_KEY_PATH.write_text("".join(lines))
    print(f"wrote {len(lines)} words to {answer_key.LOOPS_KEY_PATH.name}: {tally}")


if __name__ == "__main__":
    main()
