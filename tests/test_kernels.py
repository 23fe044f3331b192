"""The word kernel against independent definitions of its contract."""

import os
import subprocess
import sys
import tracemalloc
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import twosquares
from twosquares import _kernel_py, kernel
from twosquares.kernel import inv, mul, reduce_word, search_square_pair, square_root, words_of_length

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


def words(max_size):
    return st.lists(st.integers(0, 3), max_size=max_size).map(ref_reduce)


@st.composite
def seam_pairs(draw):
    """(u, v) where v starts by cancelling a suffix of u."""
    u = draw(words(20))
    k = draw(st.integers(0, len(u)))
    v = ref_reduce(ref_inv(u[len(u) - k:]) + draw(words(20)))
    return u, v


@st.composite
def search_targets(draw):
    """g with |g| <= 8: a random word, or a product of two short squares."""
    if draw(st.booleans()):
        return draw(words(8))
    a, b = draw(words(2)), draw(words(2))
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
    assert search_square_pair(g, 3) == ref_search(g, 3)


def test_pure_search_basics():
    # [x^2, y] as codes: x x y X X Y
    g = bytes([0, 0, 2, 1, 1, 3])
    a, b, checked = _kernel_py.search_square_pair(g, 3)
    assert a == bytes([0])
    assert b == bytes([2, 1, 3])
    assert checked == 2


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
        _kernel_py._cached_level.cache_clear()
        cold = [search_square_pair(g, 6) for g in targets]
        warm = [search_square_pair(g, 6) for g in targets]
        assert cold == warm
        assert [a is not None for a, _, _ in cold] == [False, True, True]

    def test_import_builds_no_level(self):
        code = ("import twosquares; from twosquares import _kernel_py; "
                "print(_kernel_py._cached_level.cache_info().currsize)")
        # the same package as this process, whether installed or on PYTHONPATH
        env = {**os.environ, "PYTHONPATH": str(Path(twosquares.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True).stdout
        assert out == "0\n"

    def test_miss_past_the_cap_keeps_memory_bounded(self):
        _kernel_py._cached_level.cache_clear()
        tracemalloc.start()
        try:
            got = search_square_pair(bytes([0, 2, 1, 3]), 9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == (None, None, 39365)
        # levels 0..8 are kept, level 9 is streamed and dropped
        assert _kernel_py._cached_level.cache_info().currsize == _kernel_py._CACHED_LEVELS + 1
        assert peak < 3 * 2**20, f"tracemalloc peak {peak / 2**20:.2f} MB"
