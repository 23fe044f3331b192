"""Census of the joint-image refutation over every reduced word of length <= 10.

Usage: PYTHONPATH=src python3 benchmarks/census_joint_image.py [--max-len N]

Among the words with even exponent sums, count those whose image under
the four maps onto SL(2,3) is not a product of two squares in their
joint image H.  Loop words are split by analyze(bound=5): refuted by H
alone (the words that were Unknown before the H step), already refuted
by an earlier test, or witnessed (which would be a contradiction).  A
refuted non-loop word is searched at bound 8, every level of which is
sieved, and must have no witness.  At the default length the counts are
checked against the pinned ones, and a mismatch exits 1.
"""

import argparse
import sys
import time
from collections import Counter

from twosquares import abelianize, analyze, enumerate_reduced, quotients, search_with_stats
from twosquares.obstructions import JOINT_IMAGE_REASON

PINNED = {
    10: {
        "loop words refuted by H alone": 240,
        "loop words refuted by H, already obstructed": 536,
        "loop words witnessed at bound 5": 785,
        "loop words witnessed at bound 5 and refuted by H": 0,
        "non-loop words refuted by H": 872,
        "non-loop words refuted by H and witnessed at bound 8": 0,
    },
}


def census(max_len):
    counts = Counter()
    for g in enumerate_reduced(max_len):
        s, t = abelianize(g)
        if s % 2 or t % 2:
            continue
        refuted = quotients.refutes(g.codes)
        if (s, t) == (0, 0):
            verdict = analyze(g, bound=5).verdict
            if verdict.reason == JOINT_IMAGE_REASON:
                counts["loop words refuted by H alone"] += 1
            elif refuted:
                counts["loop words refuted by H, already obstructed"] += 1
            if verdict.kind == "TwoSquares":
                counts["loop words witnessed at bound 5"] += 1
                counts["loop words witnessed at bound 5 and refuted by H"] += refuted
        elif refuted:
            counts["non-loop words refuted by H"] += 1
            witnessed = search_with_stats(g, 8).witness is not None
            counts["non-loop words refuted by H and witnessed at bound 8"] += witnessed
    return counts


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-len", type=int, default=10, help="longest word length (default 10)")
    max_len = parser.parse_args().max_len
    start = time.perf_counter()
    counts = census(max_len)
    print(f"reduced words of length <= {max_len}, {time.perf_counter() - start:.1f} s")
    pinned = PINNED.get(max_len)
    names = pinned or sorted(counts)
    for name in names:
        print(f"  {name}: {counts[name]}")
    if pinned is not None and any(counts[name] != want for name, want in pinned.items()):
        print(f"counts differ from the pinned ones: {pinned}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
