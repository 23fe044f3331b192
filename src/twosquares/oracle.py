"""Brute-force witness search: is a word a product of two squares?

The search walks candidate first factors a in shortlex order (letter
order x < x^-1 < y < y^-1) and solves for the second factor: g = a^2 b^2
iff a^-2 g is a square, and square roots in a free group are unique and
checkable in linear time.  The length bound applies to a only, so a miss
means "no witness with |a| <= bound", never a proof of impossibility.

A witness in squares form (g = a^2 b^2) converts to a product of two
conjugate elements and back via a^2 b^2 = (ab)(b^-1 (ab) b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from . import kernel
from .words import Word


@dataclass(frozen=True)
class Witness:
    """A decomposition of a word: a^2 b^2 ("squares") or a (b^-1 a b) ("conjugates")."""

    a: Word
    b: Word
    form: str  # "squares" | "conjugates"

    def product(self) -> Word:
        """Re-multiply the decomposition (the reduction is the re-verification)."""
        if self.form == "squares":
            return self.a * self.a * self.b * self.b
        return self.a * (~self.b * self.a * self.b)

    def to_json(self) -> dict:
        return {"a": str(self.a), "b": str(self.b), "form": self.form}


@dataclass(frozen=True)
class SearchOutcome:
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


def count_reduced(max_len: int) -> int:
    """Number of reduced words of length <= max_len: 1 + sum of 4*3^(n-1)."""
    return 2 * 3**max_len - 1


def enumerate_reduced(max_len: int) -> Iterator[Word]:
    """All reduced words of length <= max_len in shortlex order, each once."""
    for n in range(max_len + 1):
        for data in kernel.words_of_length(n):
            yield Word._from_reduced(data)


def search_two_squares(g: Word, bound: int) -> Optional[Witness]:
    """Shortlex-least witness g = a^2 b^2 with |a| <= bound, or None.

    None is inconclusive: it rules out witnesses with |a| <= bound only.
    """
    return search_with_stats(g, bound).witness


def search_with_stats(g: Word, bound: int) -> SearchOutcome:
    """Like search_two_squares, but also reports how many a's were tried."""
    if bound < 0:
        raise ValueError("bound must be >= 0")
    a, b, checked = kernel.search_square_pair(g.codes, bound)
    if a is None:
        return SearchOutcome(None, checked, bound)
    witness = Witness(Word._from_reduced(a), Word._from_reduced(b), "squares")
    _verify(witness, g)
    return SearchOutcome(witness, checked, bound)


def _verify(witness: Witness, target: Word) -> None:
    """Re-multiply a witness; an explicit raise, so ``python -O`` keeps it."""
    if witness.product() != target:
        raise RuntimeError(f"witness {witness} does not multiply to {target}")


def squares_to_conjugates(w: Witness) -> Witness:
    """a^2 b^2 = (ab)(b^-1 (ab) b): convert to conjugates form."""
    if w.form != "squares":
        raise ValueError("expected a witness in squares form")
    target = w.product()
    out = Witness(w.a * w.b, w.b, "conjugates")
    _verify(out, target)
    return out


def conjugates_to_squares(w: Witness) -> Witness:
    """c (d^-1 c d) = (c d^-1)^2 d^2: convert to squares form."""
    if w.form != "conjugates":
        raise ValueError("expected a witness in conjugates form")
    target = w.product()
    out = Witness(w.a * ~w.b, w.b, "squares")
    _verify(out, target)
    return out
