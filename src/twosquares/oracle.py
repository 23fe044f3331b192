"""Brute-force witness search: is a word a product of two squares?

The search walks candidate first factors a in shortlex order (letter
order x < x^-1 < y < y^-1) and solves for the second factor: g = a^2 b^2
iff a^-2 g is a square, and square roots in a free group are unique and
checkable in linear time.  The length bound applies to a only, so a miss
means "no witness with |a| <= bound", never a proof of impossibility.

The kernel may skip a candidate it can rule out early: up to length 8
one mask over its kept candidate table sieves them through four finite
quotients (see ``_kernel_py`` and ``quotients``).  Skipped candidates
still count in ``checked``, so every witness, count and output is what
the plain shortlex scan gives.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from . import kernel
from .words import Word


class Witness(NamedTuple):
    """A decomposition a^2 b^2 of a word."""

    a: Word
    b: Word

    def product(self) -> Word:
        """Re-multiply the decomposition (the reduction is the re-verification)."""
        return self.a * self.a * self.b * self.b


class SearchOutcome(NamedTuple):
    """Result of a bounded search: the witness if any, and the effort spent."""

    witness: Optional[Witness]
    checked: int
    bound: int

    def to_json(self) -> dict:
        found = self.witness is not None
        return {
            "found": found,
            "a": str(self.witness.a) if found else None,
            "b": str(self.witness.b) if found else None,
            "checked": self.checked,
            "bound": self.bound,
        }

    def describe_miss(self) -> str:
        return f"no witness with |a| <= {self.bound} ({self.checked} candidates checked)"


def enumerate_reduced(max_len: int) -> Iterator[Word]:
    """All reduced words of length <= max_len in shortlex order, each once."""
    for n in range(max_len + 1):
        for data in kernel.words_of_length(n):
            yield Word._from_reduced(data)


# a miss at this default checks 2 * 3^12 - 1 = 1,062,881 candidates, a few seconds
DEFAULT_BOUND_CAP = 12


def _search_bound(g: Word, bound: Optional[int]) -> int:
    """The bound to search g with: |g|, at most DEFAULT_BOUND_CAP, when
    None; a negative one is refused."""
    if bound is not None and bound < 0:
        raise ValueError("bound must be >= 0")
    return min(len(g), DEFAULT_BOUND_CAP) if bound is None else bound


def search_with_stats(g: Word, bound: Optional[int] = None) -> SearchOutcome:
    """The shortlex-least witness g = a^2 b^2 with |a| <= bound, and the a's tried.

    The bound defaults to |g|, at most DEFAULT_BOUND_CAP.  No witness is
    inconclusive: it rules out witnesses with |a| <= bound only.
    """
    bound = _search_bound(g, bound)
    a, b, checked = kernel.search_square_pair(g.codes, bound)
    if a is None:
        return SearchOutcome(None, checked, bound)
    witness = Witness(Word._from_reduced(a), Word._from_reduced(b))
    if witness.product() != g:  # an explicit raise, so ``python -O`` keeps it
        raise RuntimeError(f"witness {witness} does not multiply to {g}")
    return SearchOutcome(witness, checked, bound)
