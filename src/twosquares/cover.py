"""Lifting words to walks on the Z^2 grid.

A word traces a path on the integer lattice, one unit step per letter.
The path's chain records, for every horizontal edge-orbit translate
x^i y^j X and vertical translate x^i y^j Y, how often the path runs over
it (with sign), packaged as a pair of Laurent polynomials (P, Q).  Words
with zero exponent sums trace closed loops, and their chains are cycles:
P(1,1) = Q(1,1) = 0.
"""

from __future__ import annotations

from typing import NamedTuple

from .laurent import Laurent2
from .words import Word, _peel, abelianize, in_commutator_subgroup


class NotALoopError(ValueError):
    """The word has a nonzero exponent sum, so its lift is not a loop."""

    def __init__(self, word: Word, expsums: tuple[int, int]):
        super().__init__(
            f"word {word} is not in the commutator subgroup: "
            f"exponent sums {expsums}"
        )
        self.word = word
        self.expsums = expsums


class ChainPair(NamedTuple):
    """Edge weights of a lattice path: P for horizontal, Q for vertical."""

    P: Laurent2
    Q: Laurent2

    def translate(self, a: int, b: int) -> "ChainPair":
        """Apply the lattice translation by (a, b): multiply by x^a y^b."""
        return ChainPair(self.P.monomial_mul(a, b), self.Q.monomial_mul(a, b))

    def __add__(self, other: "ChainPair") -> "ChainPair":
        return ChainPair(self.P + other.P, self.Q + other.Q)

    def __neg__(self) -> "ChainPair":
        return ChainPair(-self.P, -self.Q)

    def to_json(self) -> dict:
        return {"P": self.P.to_json(), "Q": self.Q.to_json()}


# Per letter code (x, X, y, Y): the chain side it runs on (0 = P, 1 = Q),
# its sign, and its lattice step.
_STEPS = ((0, 1, 1, 0), (0, -1, -1, 0), (1, 1, 0, 1), (1, -1, 0, -1))


def lift_chain(w: Word) -> ChainPair:
    """Chain of the lift of w starting at the origin.

    Each edge is keyed by its lower-left end: the letter x crossing
    rightwards from (i, j) adds +x^i y^j to P, and x^-1 crossing back
    adds -x^i y^j at the point (i, j) it reaches; likewise y and y^-1
    with Q.  Defined for any word; it is a cycle exactly when both
    exponent sums vanish.

    The walk names the point (i, j) by the int i*width + j, with
    width = 2|w| + 1, so |j| <= |w| keeps the names apart and their
    order is the (i, j) order.  Each nonzero edge is decoded to (i, j)
    once, in sorted order, so P and Q hold their terms sorted.

    A loop w = s c s^-1 walks only its cyclic core c, from the end
    point (a, b) of s: s^-1 runs back over the edges of s with the
    opposite signs, so the chain is lift(c) translated by x^a y^b.
    """
    codes = w.codes
    n = len(codes)
    width = 2 * n + 1
    chain: tuple[dict[int, int], ...] = ({}, {})
    # per letter code: its side's terms, its sign, its step between names,
    # and the step to its edge's name (an inverse letter's edge is named
    # by the point it reaches)
    table = [
        (chain[side], sign, step, step if sign < 0 else 0)
        for side, sign, di, dj in _STEPS
        for step in (di * width + dj,)
    ]
    p = 0
    if n and codes[0] == codes[-1] ^ 1 and in_commutator_subgroup(w):
        # a loop w = s c s^-1: start c at the name of s's end point
        k = _peel(codes)
        s = codes[:k]
        p = (s.count(0) - s.count(1)) * width + s.count(2) - s.count(3)
        codes = codes[k : n - k]
    for code in codes:
        terms, sign, step, to_edge = table[code]
        edge = p + to_edge
        terms[edge] = terms.get(edge, 0) + sign
        p += step
    return ChainPair(
        Laurent2._raw(_decode(chain[0], n, width)), Laurent2._raw(_decode(chain[1], n, width))
    )


def _decode(terms: dict[int, int], n: int, width: int) -> dict[tuple[int, int], int]:
    """The nonzero terms of a walk over n letters, keyed by (i, j) instead
    of i*width + j, in sorted order."""
    out = {}
    for key in sorted(terms):
        c = terms[key]
        if c:
            i = (key + n) // width
            out[i, key - i * width] = c
    return out


def lift_trace(w: Word) -> list[tuple[int, int]]:
    """Lattice points visited by the lift of w, origin first."""
    i = j = 0
    points = [(0, 0)]
    for code in w.codes:
        _, _, di, dj = _STEPS[code]
        i += di
        j += dj
        points.append((i, j))
    return points


def homology_image(w: Word) -> ChainPair:
    """lift_chain restricted to loops; the class of w modulo backtracking.

    Raises NotALoopError when w has a nonzero exponent sum.
    """
    if not in_commutator_subgroup(w):
        raise NotALoopError(w, abelianize(w))
    return lift_chain(w)
