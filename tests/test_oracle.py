"""Witness search and enumeration."""

import pytest

from twosquares import kernel
from twosquares import (
    Word,
    analyze,
    enumerate_reduced,
    in_commutator_subgroup,
    parse,
    search_with_stats,
)

from conftest import random_reduced


class TestEnumeration:
    def test_counts(self):
        # 1 + sum of 4*3^(n-1) over n = 1..bound, that is 2*3^bound - 1
        counts = [len(list(enumerate_reduced(bound))) for bound in range(5)]
        assert counts == [2 * 3**bound - 1 for bound in range(5)] == [1, 5, 17, 53, 161]

    def test_shortlex_order_and_uniqueness(self):
        words = list(enumerate_reduced(4))
        keys = [(len(w), w.codes) for w in words]
        assert keys == sorted(keys)
        assert len(set(words)) == len(words)

    def test_all_reduced(self):
        for w in enumerate_reduced(5):
            codes = w.codes
            assert all(codes[i] != codes[i + 1] ^ 1 for i in range(len(codes) - 1))

    def test_first_words(self):
        first = [str(w) for w in enumerate_reduced(1)]
        assert first == ["e", "x", "X", "y", "Y"]


class TestSearch:
    def test_even_commutator(self):
        w = search_with_stats(parse("[x^2,y]"), 3).witness
        assert w is not None
        assert (w.a, w.b) == (Word("x"), Word("yXY"))
        assert w.product() == parse("[x^2,y]")

    def test_odd_commutator_never_found(self):
        assert search_with_stats(parse("[x,y]"), 5).witness is None

    def test_empty_word(self):
        w = search_with_stats(Word(), 0).witness
        assert w is not None and w.a == Word() and w.b == Word()

    def test_stats(self):
        outcome = search_with_stats(parse("[x^2,y]"), 3)
        assert outcome.witness is not None
        assert outcome.checked == 2  # e fails, x hits
        assert outcome.bound == 3
        missing = search_with_stats(parse("[x,y]"), 2)
        assert missing.witness is None
        assert missing.checked == 17  # every reduced word of length <= 2

    def test_json(self):
        j = search_with_stats(parse("[x^2,y]"), 3).to_json()
        assert j == {"found": True, "a": "x", "b": "yXY", "checked": 2, "bound": 3}
        j2 = search_with_stats(parse("[x,y]"), 1).to_json()
        assert j2 == {"found": False, "a": None, "b": None, "checked": 5, "bound": 1}

    def test_found_witnesses_verify(self, rng):
        # seed with actual products of two squares, search must re-find some pair
        for _ in range(200):
            a = random_reduced(rng, rng.randrange(4))
            b = random_reduced(rng, rng.randrange(6))
            g = a * a * b * b
            w = search_with_stats(g, len(a)).witness
            assert w is not None
            assert w.product() == g

    def test_wrong_kernel_pair_is_rejected(self, monkeypatch):
        # an explicit check, not an assert, so it also runs under python -O
        monkeypatch.setattr(kernel, "search_square_pair", lambda *args: (b"\x00", b"", 1))
        with pytest.raises(RuntimeError, match="does not multiply"):
            search_with_stats(parse("[x^2,y]"), 3)

    def test_shortlex_least_witness(self):
        # x^4: both e (root x^2) and the least candidate; a must be e
        w = search_with_stats(parse("x^4"), 3).witness
        assert w.a == Word()
        assert w.b == parse("x^2")


class TestCrossValidation:
    def test_oracle_never_contradicts_obstructions(self):
        # every witnessed word of length <= 6, loop or not, passes the
        # parity, factor and area tests
        witnessed = {True: 0, False: 0}
        for g in enumerate_reduced(6):
            if search_with_stats(g, 4).witness is None:
                continue
            witnessed[in_commutator_subgroup(g)] += 1
            assert analyze(g, 8, bound=0).verdict.kind != "NotTwoSquares", g
        assert witnessed == {True: 25, False: 388}
