"""Pure-Python word kernels: reduction, products, square roots, witness search.

A word is a ``bytes`` string over the four letter codes 0 = x, 1 = x^-1,
2 = y, 3 = y^-1, so the inverse of a letter is ``letter ^ 1``.  All
functions assume their inputs are freely reduced unless stated otherwise,
and always return reduced words.  ``kernel`` re-exports these names.
The witness search sieves its candidates up to length 8 with one mask
over one kept table.
"""

import functools
from itertools import chain, compress, repeat

from .quotients import images, maps

BACKEND = "python"


def reduce_word(letters):
    """Freely reduce an arbitrary letter string (not assumed reduced)."""
    out = []
    for c in letters:
        if out and out[-1] == c ^ 1:
            out.pop()
        else:
            out.append(c)
    return bytes(out)


# mul and square_root loop by letter: a bisection in mul slowed analyze(bound=5) by 4-28%.
def mul(u, v):
    """Product of two reduced words; cancellation happens only at the seam."""
    i = len(u) - 1
    j = 0
    nv = len(v)
    while i >= 0 and j < nv and u[i] == v[j] ^ 1:
        i -= 1
        j += 1
    return u[: i + 1] + v[j:]


_INV = bytes.maketrans(b"\x00\x01\x02\x03", b"\x01\x00\x03\x02")


def inv(u, n=None):
    """The inverse of u, or of its first n letters when n is given."""
    if n is None:
        n = len(u)
    # at n = 0, u[n - 1 :: -1] would be all of u reversed
    return u[n - 1 :: -1].translate(_INV) if n else u[:0]


def square_root(w):
    """The unique v with v*v == w, or None.

    Peel inverse letter pairs from the two ends until the core is
    cyclically reduced; w is a square iff that core is two equal halves,
    and then the root is (peeled prefix) + (half) + (peeled suffix).
    """
    n = len(w)
    if n == 0:
        return b""
    lo, hi = 0, n - 1
    while lo < hi and w[lo] == w[hi] ^ 1:
        lo += 1
        hi -= 1
    m = hi - lo + 1
    if m % 2:
        return None
    half = m // 2
    if w[lo : lo + half] != w[lo + half : hi + 1]:
        return None
    return w[: lo + half] + w[hi + 1 :]


_FIRST = tuple(bytes((c,)) for c in range(4))
_NEXT = tuple(tuple(d for d in _FIRST if d[0] != c ^ 1) for c in range(4))  # may follow c


def words_of_length(n):
    """Yield every reduced word of length n in lexicographic letter order."""
    if n == 0:
        yield b""
        return
    stack = [b""]  # prefixes to extend, the least on top; no recursion
    while stack:
        prefix = stack.pop()
        nexts = _NEXT[prefix[-1]] if prefix else _FIRST
        if len(prefix) < n - 1:
            stack += [prefix + c for c in reversed(nexts)]
        else:
            for c in nexts:
                yield prefix + c


# Tables up to this length are kept once built: 13,121 candidates, about 2 MB.
_CACHED_LEVELS = 8


def _with_inverse_square(a):
    ia = inv(a)
    return a, mul(ia, ia)


@functools.cache  # two threads building a table at once each get an equal one
def _table(top):
    """(pairs, columns): every (a, a^-2) with |a| <= top in shortlex order,
    and for each quotient its image of each a, one byte per a.

    A table is the one below it plus level top, so the pairs are shared.
    """
    pairs, columns = _table(top - 1) if top else ((), repeat(b""))
    level = tuple(map(_with_inverse_square, words_of_length(top)))
    # at most 8 letters: too short to gain from packing, so folded letter by letter
    return pairs + level, tuple(column + bytes(q.fold(b"", a) for a, _ in level)
                                for q, column in zip(maps(), columns))


def search_square_pair(g, bound):
    """Shortlex search for (a, b) with a*a*b*b == g and len(a) <= bound.

    Returns (a, b, checked) on a hit, else (None, None, checked), where
    checked counts the candidate a's examined.  b is the square root of
    a^-2 g and is not length-limited.  Up to length 8 the candidates come
    from one kept table, and one mask over it keeps the a that survive
    every quotient's sieve; the others cannot be witnesses, and still
    count in checked.  Longer lengths are streamed and not sieved.
    quotients.images folds g once per word.
    """
    pairs, columns = _table(min(bound, _CACHED_LEVELS))
    sel = -1
    for q, column, h in zip(maps(), columns, images(g)):
        sel &= int.from_bytes(column.translate(q.good[h]), "little")
    streamed = chain.from_iterable(map(words_of_length, range(_CACHED_LEVELS + 1, bound + 1)))
    candidates = chain(compress(enumerate(pairs, 1), sel.to_bytes(len(pairs), "little")),
                       enumerate(map(_with_inverse_square, streamed), len(pairs) + 1))
    for checked, (a, ia2) in candidates:
        s = square_root(mul(ia2, g))
        if s is not None:
            return a, s, checked
    return None, None, 2 * 3**bound - 1  # every reduced a with |a| <= bound
