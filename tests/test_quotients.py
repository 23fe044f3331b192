"""The four maps onto SL(2,3) and the refutation by their joint image H."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import twosquares
from twosquares import (
    abelianize,
    analyze,
    enumerate_reduced,
    in_commutator_subgroup,
    parse,
    quotients,
    search_with_stats,
)
from twosquares.obstructions import JOINT_IMAGE_REASON


def mat_mul(m, k, p=3):
    (a, b, c, d), (e, f, g, h) = m, k
    return (a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p


def non_products_of_h():
    """H's elements that are not u^2 v^2, as keys, rebuilt from the maps' letter images.

    Only the numbering of each quotient's elements is taken from the
    module; products, the walk through H and its squares are computed here.
    """
    maps = quotients.maps()
    numbers = [{m: i for i, m in enumerate(q.elements)} for q in maps]
    times = [[bytes(number[mat_mul(m, k)] for k in q.elements) for m in q.elements]
             for q, number in zip(maps, numbers)]  # times[i][a][b]: a times b in map i
    letters = [[number[k] for k in q.letters] for q, number in zip(maps, numbers)]
    identity = (0, 0, 0, 0)
    h = {identity}
    frontier = [identity]
    while frontier:  # a walk through H by the four letters
        frontier = [e for e in {tuple(t[a][l[c]] for t, l, a in zip(times, letters, e))
                                for e in frontier for c in range(4)} if e not in h]
        h.update(frontier)
    squares = sorted({tuple(t[a][a] for t, a in zip(times, e)) for e in h})
    columns = [bytes(s[i] for s in squares) for i in range(4)]
    products = set()
    for s in squares:  # s times every square, one map at a time
        products.update(zip(*(column.translate(t[a] + bytes(256 - len(t[a])))
                              for column, t, a in zip(columns, times, s))))
    assert (len(h), len(squares), len(products)) == (quotients.JOINT_ORDER, 1040, 35256)
    return {quotients.key(e) for e in h - products}


def test_table_is_rebuilt_from_the_maps():
    rebuilt = non_products_of_h()
    assert len(rebuilt) == 1608
    assert quotients._non_products() == rebuilt


def test_reason_and_precedence():
    report = analyze(parse("x^3yX^2yXY^2"), bound=3)
    assert report.verdict.kind == "NotTwoSquares"
    assert report.verdict.reason == (
        "its image under the four mod-3 maps onto SL(2,3) is not a product of two squares"
        " in their joint image (order 36864)"
    )
    assert report.search is None  # the search is skipped
    # an earlier test keeps its reason on a word H also refutes
    assert quotients.refutes(parse("[x,y]").codes)
    assert analyze(parse("[x,y]")).verdict.reason == "phi_1 = -1 is odd"


def test_one_fold_per_word(monkeypatch):
    # a whole word is packed, then folded; the search's cached levels are folded unpacked
    packed = []
    pack = quotients.pack
    monkeypatch.setattr(quotients, "pack", lambda word: packed.append(word) or pack(word))

    def packs(run):
        quotients.images.cache_clear()
        packed.clear()
        return run(), len(packed)

    report, n = packs(lambda: analyze(parse("[x^2,y]"), bound=3))
    assert (report.verdict.kind, n) == ("TwoSquares", 1)  # H passes it, then the search hits
    report, n = packs(lambda: analyze(parse("x^3yX^2yXY^2")))
    assert (report.verdict.reason, n) == (JOINT_IMAGE_REASON, 1)
    assert packs(lambda: search_with_stats(parse("[x,y]^2"), 3))[1] == 1
    assert packs(lambda: [search_with_stats(parse(e), 3) for e in ("[x^2,y]", "[x,y]^2")])[1] == 2


def test_refutations_up_to_length_8_are_sound():
    loops = nonloops = 0
    for g in enumerate_reduced(8):
        s, t = abelianize(g)
        if s % 2 or t % 2 or not quotients.refutes(g.codes):
            continue
        verdict = analyze(g).verdict
        assert verdict.kind == "NotTwoSquares", g
        if (s, t) == (0, 0):
            loops += 1
            assert verdict.reason != JOINT_IMAGE_REASON, g  # already obstructed
        else:
            nonloops += 1
            assert verdict.reason == JOINT_IMAGE_REASON, g
        assert search_with_stats(g, len(g)).witness is None, g
    assert (loops, nonloops) == (72, 64)


def test_every_loop_word_up_to_length_10_is_decided():
    kinds = Counter()
    joint = []
    for g in enumerate_reduced(10):
        if in_commutator_subgroup(g):
            report = analyze(g, bound=5)
            kinds[report.verdict.kind] += 1
            if report.verdict.reason == JOINT_IMAGE_REASON:
                assert report.search is None
                joint.append(g)
    assert kinds == {"NotTwoSquares": 1816, "TwoSquares": 785}
    # exactly the words the search misses at bound 5 once the parity tests pass
    assert len(joint) == 240
    assert all(search_with_stats(g, 5).witness is None for g in joint)


def test_tables_load_only_when_a_word_reaches_them():
    code = (
        "from twosquares import analyze, parse, quotients as q\n"
        "def loaded():\n"
        "    built = q.maps.cache_info().currsize\n"
        "    good = sum('good' in vars(m) for m in q.maps()) if built else 0\n"
        "    return built, q._non_products.cache_info().currsize, good\n"
        "analyze(parse('[x,y]'))\n"
        "print(loaded())\n"
        "analyze(parse('x^3yX^2yXY^2'))\n"
        "print(loaded())\n"
        "analyze(parse('y^2x^2yX^2Y^3'))\n"  # passes H; its witness is on a sieved level
        "print(loaded())\n"
    )
    # the same package as this process, whether installed or on PYTHONPATH
    env = {**os.environ, "PYTHONPATH": str(Path(twosquares.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out == "(0, 0, 0)\n(1, 1, 0)\n(1, 1, 4)\n"
