"""Lifting words to walks on the Z^2 grid.

A word traces a path on the integer lattice, one unit step per letter.
The path's chain records, for every horizontal edge-orbit translate
x^i y^j X and vertical translate x^i y^j Y, how often the path runs over
it (with sign), packaged as a pair of Laurent polynomials (P, Q).  Words
with zero exponent sums trace closed loops, and their chains are cycles:
P(1,1) = Q(1,1) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .laurent import Laurent2
from .words import Word, abelianize, in_commutator_subgroup


class NotALoopError(ValueError):
    """The word has a nonzero exponent sum, so its lift is not a loop."""

    def __init__(self, word: Word, expsums: tuple[int, int]):
        super().__init__(
            f"word {word} is not in the commutator subgroup: "
            f"exponent sums {expsums}"
        )
        self.word = word
        self.expsums = expsums


@dataclass(frozen=True)
class ChainPair:
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

    def is_cycle(self) -> bool:
        return self.P.eval11() == 0 and self.Q.eval11() == 0

    def to_json(self) -> dict:
        return {"P": self.P.to_json(), "Q": self.Q.to_json()}


def lift_chain(w: Word) -> ChainPair:
    """Chain of the lift of w starting at the origin.

    Walking from (0, 0): the letter x crossing rightwards from (i, j)
    adds +x^i y^j to P; x^-1 first steps left, then adds -x^(i-1) y^j;
    likewise y and y^-1 with Q.  Defined for any word; it is a cycle
    exactly when both exponent sums vanish.
    """
    p: dict[tuple[int, int], int] = {}
    q: dict[tuple[int, int], int] = {}
    i = j = 0
    for code in w.codes:
        if code == 0:
            _bump(p, (i, j), 1)
            i += 1
        elif code == 1:
            i -= 1
            _bump(p, (i, j), -1)
        elif code == 2:
            _bump(q, (i, j), 1)
            j += 1
        else:
            j -= 1
            _bump(q, (i, j), -1)
    return ChainPair(Laurent2._raw(p), Laurent2._raw(q))


def _bump(terms: dict[tuple[int, int], int], ij: tuple[int, int], delta: int):
    s = terms.get(ij, 0) + delta
    if s:
        terms[ij] = s
    else:
        terms.pop(ij, None)


def lift_trace(w: Word) -> list[tuple[int, int]]:
    """Lattice points visited by the lift of w, origin first."""
    i = j = 0
    points = [(0, 0)]
    for code in w.codes:
        if code == 0:
            i += 1
        elif code == 1:
            i -= 1
        elif code == 2:
            j += 1
        else:
            j -= 1
        points.append((i, j))
    return points


def homology_image(w: Word) -> ChainPair:
    """lift_chain restricted to loops; the class of w modulo backtracking.

    Raises NotALoopError when w has a nonzero exponent sum.
    """
    if not in_commutator_subgroup(w):
        raise NotALoopError(w, abelianize(w))
    return lift_chain(w)
