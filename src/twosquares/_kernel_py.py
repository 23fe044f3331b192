"""Pure-Python word kernels: reduction, products, square roots, witness search.

A word is a ``bytes`` string over the four letter codes 0 = x, 1 = x^-1,
2 = y, 3 = y^-1, so the inverse of a letter is ``letter ^ 1``.  All
functions assume their inputs are freely reduced unless stated otherwise,
and always return reduced words.  ``kernel`` re-exports these names.
"""

import functools
from itertools import compress

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


# Levels up to this length are kept once built: 13,121 pairs, about 2 MB.
_CACHED_LEVELS = 8


def _with_inverse_square(a):
    ia = inv(a)
    return a, mul(ia, ia)


@functools.cache  # two threads building a level at once each get an equal tuple
def _cached_level(n):
    return tuple(map(_with_inverse_square, words_of_length(n)))


def _level(n):
    """Every (a, a^-2) with |a| = n, in words_of_length order; longer levels are streamed."""
    if n <= _CACHED_LEVELS:
        return _cached_level(n)
    return map(_with_inverse_square, words_of_length(n))


class _Quotient:
    """The finite quotient of the free group sending x, y to 2x2 matrices x_image, y_image mod 3.

    Both images must have determinant 1: inverse() assumes it, and the
    sieve is only sound if the letter X goes to the inverse of x's image.
    The quotient is the subgroup of SL(2,3) they generate.  Elements are
    numbered from 0, the identity, in the order found.  right[c][i] is
    the number of element i times letter c.  good[h] is a bytes.translate
    table sending u to 1 if u^-2 h is a square and to 0 if not.  A
    homomorphism maps squares to squares, so if a maps to u and g to h,
    then g = a^2 b^2 needs good[h][u] == 1.
    """

    p = 3

    def __init__(self, x_image, y_image):
        p = self.p

        def times(m, k):
            a, b, c, d = m
            e, f, g, h = k
            return (a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p

        def inverse(m):  # the inverse of a matrix of determinant 1
            a, b, c, d = m
            return d, -b % p, -c % p, a

        self.letters = (x_image, inverse(x_image), y_image, inverse(y_image))  # x X y Y
        self.elements = [(1, 0, 0, 1)]
        index = {self.elements[0]: 0}
        for m in self.elements:  # appended to while read, until closed under the letters
            for mk in (times(m, k) for k in self.letters):
                if mk not in index:
                    index[mk] = len(self.elements)
                    self.elements.append(mk)
        self.right = tuple(bytes(index[times(m, k)] for m in self.elements) for k in self.letters)
        self.squares = frozenset(index[times(m, m)] for m in self.elements)
        good = [bytearray(256) for _ in self.elements]
        for u, m in enumerate(self.elements):
            u2 = times(m, m)
            for s in self.squares:  # u^-2 h is the square s iff h = u^2 s
                good[index[times(u2, self.elements[s])]][u] = 1
        self.good = tuple(map(bytes, good))

    def fold(self, word):
        """The number of the image of word."""
        h = 0
        for c in word:
            h = self.right[c][h]
        return h


@functools.cache
def _quotients():
    """Four maps of the free group onto SL(2,3), 24 elements each; built by the first sieved search.

    With S = [[0,-1],[1,0]], T = [[1,1],[0,1]] and L = [[1,0],[1,1]] mod 3,
    (x, y) goes to (T, ST), (T, S), (S, T) and (T, L).  Under one map alone
    many loop words go to 1, and then every candidate survives, since
    u^-2 * 1 is a square; these four together sieve every candidate of
    length 3-5 of the 240 loop words of length 10 that end Unknown at bound 5.
    """
    s, t, l, st = (0, 2, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (0, 2, 1, 1)
    return tuple(_Quotient(x, y) for x, y in ((t, st), (t, s), (s, t), (t, l)))


# The sieve starts at length 3 at the earliest: levels 0-2 hold 17 candidates, and a
# search that stops there builds no table.
_FIRST_SIEVED = 3
# Folding g into the four quotients takes about 110-130 ns a letter; the sieve skips about
# 95% of a level's candidates on random words, each costing 0.8-3.8 us to test (|g| from
# 100 to 40k letters).  So a level is sieved once it holds at least len(g) / 16 candidates:
# every level from 3 on for |g| <= 576, none up to length 6 for 40k.  On misses at bounds
# 5-7 over 600-25k letters no value of 8-32 was best everywhere: 8 was up to 40% slower
# than 16 at 1500 letters, and 32 twice as slow at 10k and bound 5.
_LETTERS_PER_CANDIDATE = 16


@functools.cache
def _cached_images(n):
    """For each quotient, the image of each a in _cached_level(n), one byte per a."""
    level = _cached_level(n)
    return tuple(bytes(q.fold(a) for a, _ in level) for q in _quotients())


def _survivors(n, g_images):
    """One byte per a in _cached_level(n): nonzero unless a quotient rules that a out."""
    sel = -1
    for q, images, h in zip(_quotients(), _cached_images(n), g_images):
        sel &= int.from_bytes(images.translate(q.good[h]), "little")
    return sel.to_bytes(len(images), "little")


def search_square_pair(g, bound):
    """Shortlex search for (a, b) with a*a*b*b == g and len(a) <= bound.

    Returns (a, b, checked) on a hit, else (None, None, checked), where
    checked counts the candidate a's examined.  b is the square root of
    a^-2 g and is not length-limited.  On a cached level from length 3 on
    that holds at least len(g) / 16 candidates, only the a that survive
    every quotient's sieve are tested; the others cannot be witnesses, and
    still count in checked.
    """
    checked = 0
    g_images = None
    for n in range(bound + 1):
        size = 4 * 3 ** (n - 1) if n else 1
        candidates = enumerate(_level(n))
        if _FIRST_SIEVED <= n <= _CACHED_LEVELS and size * _LETTERS_PER_CANDIDATE >= len(g):
            if g_images is None:
                g_images = [q.fold(g) for q in _quotients()]
            candidates = compress(candidates, _survivors(n, g_images))
        for i, (a, ia2) in candidates:
            s = square_root(mul(ia2, g))
            if s is not None:
                return a, s, checked + i + 1
        checked += size  # skipped candidates too
    return None, None, checked
