"""The word kernel against independent definitions of its contract."""

import functools
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import twosquares
from twosquares import _kernel_py, analyze, enumerate_reduced, in_commutator_subgroup, kernel, quotients
from twosquares.kernel import inv, mul, reduce_word, search_square_pair, square_root, words_of_length
from twosquares.obstructions import JOINT_IMAGE_REASON

_TO_CHARS = bytes.maketrans(bytes(range(4)), b"xXyY")
_TO_CODES = bytes.maketrans(b"xXyY", bytes(range(4)))


def ref_reduce(codes):
    """Delete adjacent inverse pairs until none is left."""
    s = bytes(codes).translate(_TO_CHARS)
    while True:
        t = s.replace(b"xX", b"").replace(b"Xx", b"").replace(b"yY", b"").replace(b"Yy", b"")
        if t == s:
            return s.translate(_TO_CODES)
        s = t


def ref_inv(codes):
    return bytes(c ^ 1 for c in reversed(codes))


def is_reduced(codes):
    return all(a != b ^ 1 for a, b in zip(codes, codes[1:]))


def ref_root(w):
    """The v with v v == w, by trying every seam.

    If p letters cancel where v meets v, then w = v[:-p] + v[p:] with
    2p <= |v|, so v is the first half of w followed by the last p
    letters of w.
    """
    n = len(w)
    if n % 2:
        return None
    half = n // 2
    for p in range(half + 1):
        v = w[:half] + w[n - p:]
        if ref_reduce(v + v) == w:
            return v
    return None


def reduced_up_to(n):
    """Every reduced word of length <= n, in shortlex order."""
    return [bytes(t) for k in range(n + 1) for t in product(range(4), repeat=k) if is_reduced(t)]


def ref_search(g, bound):
    """Shortlex scan for a with a^-2 g a square; same return shape as the kernel."""
    checked = 0
    for a in reduced_up_to(bound):
        checked += 1
        b = ref_root(ref_reduce(ref_inv(a) + ref_inv(a) + g))
        if b is not None:
            return a, b, checked
    return None, None, checked


def random_reduced(rng, n):
    """A random reduced word of exactly n letters."""
    codes = []
    while len(codes) < n:
        c = rng.randrange(4)
        if not codes or c != codes[-1] ^ 1:
            codes.append(c)
    return bytes(codes)


def words(max_size):
    return st.lists(st.integers(0, 3), max_size=max_size).map(ref_reduce)


@st.composite
def seam_pairs(draw):
    """(u, v) where v starts by cancelling a suffix of u."""
    u = draw(words(20))
    k = draw(st.integers(0, len(u)))
    v = ref_reduce(ref_inv(u[len(u) - k:]) + draw(words(20)))
    return u, v


_SHORT_FACTORS = reduced_up_to(2)
_LONG_FACTORS = [w for w in reduced_up_to(5) if len(w) >= 3]


@st.composite
def search_targets(draw):
    """g: a random word of length <= 8, or a^2 b^2 with |a|, |b| <= 2 or 3 <= |a|, |b| <= 5.

    a^2 b^2 = b^2 (b^-1 a b)^2, so a short b gives a short witness: short
    factors hit on levels 0-2, longer ones mostly on levels 3-5.
    """
    factors = draw(st.sampled_from([None, _SHORT_FACTORS, _LONG_FACTORS]))
    if factors is None:
        return draw(words(8))
    a, b = draw(st.sampled_from(factors)), draw(st.sampled_from(factors))
    return ref_reduce(a + a + b + b)


def test_pure_backend_reports_itself():
    assert _kernel_py.BACKEND == "python"
    assert kernel.BACKEND == twosquares.KERNEL_BACKEND == "python"


def test_kernel_reexports_the_implementation():
    for name in ("reduce_word", "mul", "inv", "square_root", "words_of_length",
                 "search_square_pair"):
        assert getattr(kernel, name) is getattr(_kernel_py, name)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=40))
def test_reduce_word_matches_pair_deletion(raw):
    assert reduce_word(bytes(raw)) == ref_reduce(raw)


@settings(max_examples=200, deadline=None)
@given(seam_pairs())
def test_mul_is_reduced_concatenation(pair):
    u, v = pair
    assert mul(u, v) == reduce_word(u + v) == ref_reduce(u + v)


@settings(max_examples=200, deadline=None)
@given(words(30))
def test_inv_is_an_inverse(u):
    assert inv(u) == ref_inv(u)
    assert inv(inv(u)) == u
    assert mul(u, inv(u)) == b""
    assert mul(inv(u), u) == b""


@settings(max_examples=200, deadline=None)
@given(words(30), st.integers(0, 30))
def test_inv_of_a_prefix(u, n):
    n = min(n, len(u))
    assert inv(u, n) == ref_inv(u[:n])
    assert inv(bytearray(u), n) == ref_inv(u[:n])


def test_inv_of_the_empty_prefix():
    # u[n-1::-1] is the whole of u reversed at n = 0, not the empty word
    assert inv(b"\x00\x02", 0) == b""
    assert inv(bytearray(b"\x00\x02"), 0) == bytearray()
    assert inv(b"", 0) == inv(b"") == b""


@settings(max_examples=200, deadline=None)
@given(words(30))
def test_square_root_of_a_square(w):
    assert square_root(mul(w, w)) == w


def test_square_root_exhaustive_short_words():
    # A root is never longer than its square, so the squares of all
    # words of length <= 6 include every square of length <= 6.
    short = reduced_up_to(6)
    squares = {}
    for v in short:
        assert squares.setdefault(ref_reduce(v + v), v) == v  # roots are unique
    roots = 0
    for w in short:
        assert square_root(w) == squares.get(w), w
        roots += square_root(w) is not None
    assert 0 < roots < len(short)


def test_words_of_length_exhaustive():
    for n in range(7):
        want = [bytes(t) for t in product(range(4), repeat=n) if is_reduced(t)]
        assert list(words_of_length(n)) == want
        assert len(want) == (1 if n == 0 else 4 * 3 ** (n - 1))


def test_words_of_length_deeper_than_the_recursion_limit():
    assert next(words_of_length(5000)) == bytes(5000)


@settings(max_examples=200, deadline=None)
@given(search_targets())
def test_search_matches_brute_force_scan(g):
    assert search_square_pair(g, 5) == ref_search(g, 5)


def test_pure_search_basics():
    # [x^2, y] as codes: x x y X X Y
    g = bytes([0, 0, 2, 1, 1, 3])
    a, b, checked = _kernel_py.search_square_pair(g, 3)
    assert a == bytes([0])
    assert b == bytes([2, 1, 3])
    assert checked == 2


def clear_search_caches():
    for cached in (_kernel_py._cached_level, quotients.maps, _kernel_py._cached_images, quotients.images):
        cached.cache_clear()


class TestCandidateTable:
    """The search draws (a, a^-2) from levels kept up to length 8 and streams longer ones."""

    def test_cached_levels_are_the_inverse_squares(self):
        for n in range(_kernel_py._CACHED_LEVELS + 1):
            want = [(a, mul(inv(a), inv(a))) for a in words_of_length(n)]
            assert list(_kernel_py._cached_level(n)) == want, n

    def test_streamed_level_matches_the_definition(self):
        n = _kernel_py._CACHED_LEVELS + 1
        got = _kernel_py._level(n)
        want = ((a, mul(inv(a), inv(a))) for a in words_of_length(n))
        assert all(x == y for x, y in zip(got, want, strict=True))

    @pytest.mark.parametrize("expr, checked", [
        ("[x,y]", 39365),  # a miss: every level, the streamed one too
        ("[x,y]^2", 1),  # a hit at a = e
        ("xy^4XyXyxy^4XyXyx^5Yxyx^4YxyX", 13180),  # hits at |a| = 9, past the cap
        ("y^3x^5y^2x^5Yx^3yxYx^6yxYx^3", 13419),
    ])
    def test_search_across_the_cap(self, expr, checked):
        got = search_square_pair(twosquares.parse(expr).codes, 9)
        assert got == ref_search(twosquares.parse(expr).codes, 9)
        assert got[2] == checked

    def test_cold_and_warm_calls_agree(self):
        targets = [twosquares.parse(e).codes for e in ("[x,y]", "[x^2,y]", "[x,y]^2")]
        clear_search_caches()
        cold = [search_square_pair(g, 6) for g in targets]
        warm = [search_square_pair(g, 6) for g in targets]
        assert cold == warm
        assert [a is not None for a, _, _ in cold] == [False, True, True]

    def test_import_builds_no_level(self):
        code = ("import twosquares; from twosquares import _kernel_py as k, quotients as q; "
                "print([f.cache_info().currsize for f in "
                "(k._cached_level, q.maps, k._cached_images)])")
        # the same package as this process, whether installed or on PYTHONPATH
        env = {**os.environ, "PYTHONPATH": str(Path(twosquares.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True).stdout
        assert out == "[0, 0, 0]\n"

    def test_miss_past_the_cap_keeps_memory_bounded(self):
        clear_search_caches()
        tracemalloc.start()
        try:
            got = search_square_pair(bytes([0, 2, 1, 3]), 9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == (None, None, 39365)
        # levels 0..8 and their images are kept, level 9 is streamed unsieved and dropped
        assert _kernel_py._cached_level.cache_info().currsize == _kernel_py._CACHED_LEVELS + 1
        assert _kernel_py._cached_images.cache_info().currsize == _kernel_py._CACHED_LEVELS + 1
        assert peak < 3 * 2**20, f"tracemalloc peak {peak / 2**20:.2f} MB"


def mat_mul(m, k, p):
    (a, b, c, d), (e, f, g, h) = m, k
    return (a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p


def mat_inv(m, p):
    a, b, c, d = m
    return d, -b % p, -c % p, a


def image(q, codes):
    """The matrix of a word in q, from q's images of x and y alone."""
    letters = {0: q.letters[0], 2: q.letters[2]}
    m = (1, 0, 0, 1)
    for c in codes:
        k = letters[c & 2]
        m = mat_mul(m, k if c % 2 == 0 else mat_inv(k, q.p), q.p)
    return m


@functools.cache
def searched_loop_words():
    """The loop words of length <= 10 that no parity test refutes, by whether the search finds a witness.

    "Unknown" holds those it misses at bound 5: analyze refutes them
    through the four maps' joint image instead, and no longer searches.
    """
    by_kind = {"TwoSquares": [], "Unknown": []}
    for g in enumerate_reduced(10):
        if in_commutator_subgroup(g):
            verdict = analyze(g, bound=5).verdict
            if verdict.kind == "TwoSquares":
                by_kind["TwoSquares"].append(g.codes)
            elif verdict.reason == JOINT_IMAGE_REASON:
                by_kind["Unknown"].append(g.codes)
    return by_kind


def kept_at_lengths_3_to_5(g):
    """How many of the 468 candidates of length 3-5 survive the sieve for g."""
    g_images = quotients.images(g)
    kept = 0
    for n in range(3, 6):
        sel = _kernel_py._survivors(n, g_images)
        assert len(sel) == 4 * 3 ** (n - 1), (n, len(sel))  # one byte for every candidate
        kept += len(sel) - sel.count(0)
    return kept


class TestQuotientSieve:
    """Up to length 8 the search tests only the a whose a^-2 g maps to a square in every quotient."""

    def test_quotient_sizes(self):
        s, t, l, st = (0, 2, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (0, 2, 1, 1)
        assert [(q.p, q.letters[0], q.letters[2], len(q.elements), len(q.squares))
                for q in quotients.maps()] == [
            (3, t, st, 24, 10), (3, t, s, 24, 10), (3, s, t, 24, 10), (3, t, l, 24, 10)]

    @pytest.mark.parametrize("which", range(4))
    def test_good_keeps_every_witness_image(self, which):
        # the sieve's lemma: if h = u^2 v^2 then u^-2 h is a square, so u survives
        q = quotients.maps()[which]
        number = {m: i for i, m in enumerate(q.elements)}
        kept = set()
        for u, mu in enumerate(q.elements):
            u2 = mat_mul(mu, mu, q.p)
            for mv in q.elements:
                h = number[mat_mul(u2, mat_mul(mv, mv, q.p), q.p)]
                assert q.good[h][u] == 1, (u, h)
                kept.add((h, u))
        # and nothing else is kept
        assert sum(map(sum, q.good)) == len(kept)

    def test_letter_images_are_a_homomorphism(self):
        short = reduced_up_to(3)
        for q in quotients.maps():
            def fold(u):
                return q.fold(*quotients.pack(u))

            assert all(q.elements[fold(u)] == image(q, u) for u in short)
            for u in short:
                mu = q.elements[fold(u)]
                assert q.elements[fold(inv(u))] == mat_inv(mu, q.p)
                for v in short:
                    assert q.elements[fold(mul(u, v))] == mat_mul(mu, q.elements[fold(v)], q.p)

    @pytest.mark.parametrize("first_sieved", [0, 10**9])
    def test_where_the_sieve_starts_changes_no_result(self, monkeypatch, first_sieved):
        # lengths below first_sieved pass every candidate: 0 is the search's own rule,
        # 10**9 sieves no length; the a^2 b^2 of about 720 letters and b itself are
        # checked against the plain scan, while on the two words of about 25k letters
        # at bound 7 that scan is too slow for the suite, so they are pinned only
        survivors = _kernel_py._survivors

        def from_first_sieved(n, g_images):
            if n < first_sieved:
                return b"\x01" * len(_kernel_py._cached_level(n))
            return survivors(n, g_images)

        monkeypatch.setattr(_kernel_py, "_survivors", from_first_sieved)
        rng = random.Random(11)
        b = ref_reduce(bytes(rng.randrange(4) for _ in range(700)))
        long_b = ref_reduce(bytes(rng.randrange(4) for _ in range(25000)))
        long_miss = ref_reduce(bytes(rng.randrange(4) for _ in range(50000)))
        a_s = [level[len(level) // 2] for level in (list(words_of_length(n)) for n in (3, 4, 5))]
        targets = [(mul(mul(a, a), mul(b, b)), 5) for a in a_s] + [(b, 5)]
        targets += [(mul(mul(a_s[0], a_s[0]), mul(long_b, long_b)), 7), (long_miss, 7)]
        assert all(24000 < len(g) < 26000 for g, _ in targets[-2:])
        got = [search_square_pair(g, bound) for g, bound in targets]
        assert [a for a, _, _ in got] == a_s + [None, a_s[0], None]
        assert [checked for _, _, checked in got] == [36, 108, 324, 485, 36, 4373]
        assert got[:4] == [ref_search(g, bound) for g, bound in targets[:4]]

    def test_every_cached_level_is_sieved(self, monkeypatch):
        # an odd x exponent sum: no witness, so the search goes through every level
        rng = random.Random(14)
        targets = []
        for n in (6, 700, 25000):
            g = random_reduced(rng, n)
            while (g.count(0) - g.count(1)) % 2 == 0:
                g = random_reduced(rng, n)
            targets.append(g)
        sieved = []
        survivors = _kernel_py._survivors

        def recorded(n, g_images):
            sieved.append(n)
            return survivors(n, g_images)

        monkeypatch.setattr(_kernel_py, "_survivors", recorded)
        for g in targets:
            sieved.clear()
            got = search_square_pair(g, 6)
            assert got == (None, None, 2 * 3**6 - 1), len(g)
            assert sieved == list(range(7)), len(g)

    def test_packed_fold_is_the_letter_fold(self):
        # every length mod 4 up to 40, and long words, whose packed bytes take all 256 values
        rng = random.Random(13)
        targets = [bytes(rng.randrange(4) for _ in range(n)) for n in list(range(41)) * 3]
        targets += [bytes(rng.randrange(4) for _ in range(n)) for n in (4000, 4001, 4002, 4003)]
        for g in targets:
            want = []
            for q in quotients.maps():
                h = 0
                for c in g:
                    h = q.right[c][h]
                want.append(h)
            assert quotients.images(g) == tuple(want), g

    def test_sieve_rejects_most_candidates_of_the_unknown_loop_words(self):
        unknown = [g for g in searched_loop_words()["Unknown"] if len(g) == 10]
        assert len(unknown) == 240
        assert sum(map(kept_at_lengths_3_to_5, unknown)) == 0

    def test_sieve_rejects_most_candidates_of_the_two_squares_loop_words(self):
        found = [g for g in searched_loop_words()["TwoSquares"] if len(g) == 10]
        assert len(found) == 656
        kept = list(map(kept_at_lengths_3_to_5, found))
        assert sum(kept) <= 0.10 * 468 * len(found), f"{sum(kept)} of {468 * len(found)} survive"
        assert max(kept) < 468

    def test_square_tests_on_the_searched_loop_words(self, monkeypatch):
        words = searched_loop_words()
        assert (len(words["TwoSquares"]), len(words["Unknown"])) == (785, 240)
        tests = []

        def counted(w):
            tests.append(w)
            return square_root(w)

        monkeypatch.setattr(_kernel_py, "square_root", counted)
        for g in words["TwoSquares"] + words["Unknown"]:
            search_square_pair(g, 5)
        # 2,227 when this gate was set
        assert len(tests) <= 2227
