"""Pure-Python word kernels: reduction, products, square roots, witness search.

A word is a ``bytes`` string over the four letter codes 0 = x, 1 = x^-1,
2 = y, 3 = y^-1, so the inverse of a letter is ``letter ^ 1``.  All
functions assume their inputs are freely reduced unless stated otherwise,
and always return reduced words.  ``kernel`` re-exports these names.
Products and square roots find what cancels by one bisection,
``_common_suffix``: ``_seam`` where two words meet, ``_peel`` where a
word's ends meet; ``words`` uses the same three.  The witness search
sieves its candidates up to length 8 with one mask over one kept table.
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


def mul(u, v):
    """Product of two reduced words; cancellation happens only at the seam."""
    k = _seam(u, v)
    # most of the search's seams cancel nothing, and u + v makes no slices
    return u[: len(u) - k] + v[k:] if k else u + v


_INV = bytes.maketrans(b"\x00\x01\x02\x03", b"\x01\x00\x03\x02")


def inv(u, n=None):
    """The inverse of u, or of its first n letters when n is given."""
    if n is None:
        n = len(u)
    # at n = 0, u[n - 1 :: -1] would be all of u reversed
    return u[n - 1 :: -1].translate(_INV) if n else u[:0]


def square_root(w):
    """The unique v with v*v == w, or None.

    w = s c s^-1 with c cyclically reduced, by the peel; w is a square iff
    c is two equal halves, and then the root is s + (half of c) + s^-1.
    """
    n = len(w)
    if n % 2:  # then c, of n - 2|s| letters, is odd too
        return None
    p = _peel(w)
    mid = n // 2
    if w[p:mid] != w[mid : n - p]:
        return None
    return w[:mid] + w[n - p :]


def _common_suffix(a, lo, hi, b, end, found):
    """Longest common suffix of a[lo:hi] and b[:end], known to be at least
    found; bisection, no copies."""
    most = min(hi - lo, end)
    view = memoryview(b)
    while found < most:
        mid = (found + most + 1) // 2
        if a.endswith(view[end - mid : end], lo, hi):
            found = mid
        else:
            most = mid - 1
    return found


def _seam(u, v):
    """How many letters cancel where reduced u meets reduced v."""
    if not (u and v and u[-1] == v[0] ^ 1):  # most seams do not cancel
        return 0
    most = min(len(u), len(v))
    if most == 1 or u[-2] != v[1] ^ 1:  # most that do cancel one letter
        return 1
    # the inverse of v[:k] is the end of the inverse of v[:most]
    return _common_suffix(u, 0, len(u), inv(v, most), most, 2)


def _peel(w):
    """The p with w = s c s^-1, |s| = p and c cyclically reduced, for reduced w.

    The last p letters of w are the inverse of its first p, so p is the
    longest common suffix of the last half of w and w^-1.
    """
    if not w or w[0] != w[-1] ^ 1:
        return 0
    n = len(w)
    if n < 4 or w[1] != w[-2] ^ 1:
        return 1
    return _common_suffix(w, n - n // 2, n, inv(w), n, 2)


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
