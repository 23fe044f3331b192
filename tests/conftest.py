"""Shared generators for randomized tests (all seeded, fully deterministic),
reference helpers, and the one bound-5 classification of the short loops."""

import functools
import random

import pytest

from twosquares import (
    Laurent1,
    Laurent2,
    Word,
    abelianize,
    analyze,
    enumerate_reduced,
    in_commutator_subgroup,
)

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


def mat_mul(m, k, p):
    (a, b, c, d), (e, f, g, h) = m, k
    return (a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p


def mat_inv(m, p):
    a, b, c, d = m
    return d, -b % p, -c % p, a


@functools.cache
def short_loop_reports():
    """(g, analyze(g, bound=5)) for the 2,601 loop words g of length <= 10, in shortlex order.

    Built once per session: the quotient and kernel tests both read it.
    """
    return tuple((g, analyze(g, bound=5)) for g in enumerate_reduced(10) if in_commutator_subgroup(g))


def random_reduced(rng: random.Random, length: int) -> Word:
    """Uniform reduced word of exactly the given length."""
    if length == 0:
        return Word()
    codes = [rng.randrange(4)]
    for _ in range(length - 1):
        c = rng.randrange(3)
        if c >= codes[-1] ^ 1:
            c += 1
        codes.append(c)
    return Word(bytes(codes))


def random_loop(rng: random.Random, max_len: int = 12) -> Word:
    """Random word with zero exponent sums (nonempty, length <= max_len)."""
    lengths = [n for n in range(4, max_len + 1, 2)]
    while True:
        w = random_reduced(rng, rng.choice(lengths))
        if abelianize(w) == (0, 0):
            return w


def random_laurent2(rng: random.Random, max_terms: int = 6, span: int = 4,
                    cmax: int = 9) -> Laurent2:
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        terms[(rng.randint(-span, span), rng.randint(-span, span))] = rng.randint(-cmax, cmax)
    return Laurent2(terms)


def random_laurent1(rng: random.Random, max_terms: int = 6, span: int = 8,
                    cmax: int = 9) -> Laurent1:
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        terms[rng.randint(-span, span)] = rng.randint(-cmax, cmax)
    return Laurent1(terms)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)
