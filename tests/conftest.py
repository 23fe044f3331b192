"""Shared generators for randomized tests (all seeded, fully deterministic)."""

import random

import pytest

from twosquares import Laurent1, Laurent2, Word, abelianize


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
