"""Parity obstructions to being a product of two squares.

For a word w with zero exponent sums, lift it to a loop on the Z^2 grid
and collapse the chain's horizontal coefficient to f(y) = P(1, y) and the
vertical one to g(x) = Q(x, 1).  The integers phi_k = f^(k)(1)/k! and
psi_k = g^(k)(1)/k! are the obstruction ladder: the first nonzero value
on each side is invariant under conjugation and additive on products, and
it must be even whenever w is a product of two squares — so an odd value
is a proof that it is not.  On top of the ladder sits a factorization
criterion: write P = (x-1)^k (y-1)^l h with k, l maximal; h(1, 1), the
Taylor coefficient of (x-1)^k (y-1)^l in P at (1, 1), must again be even
for a product of two squares.  All criteria are one-sided: they can
refute, never confirm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .cover import ChainPair, NotALoopError, lift_chain
from .laurent import Laurent1
from .oracle import SearchOutcome, Witness, search_with_stats
from .words import Word, abelianize

DEFAULT_DEPTH = 8

_VERDICT_KINDS = ("TwoSquares", "NotTwoSquares", "Unknown")


class InapplicableCriterionError(ValueError):
    """The requested criterion does not apply (zero chain coefficient)."""


class FirstObstruction(NamedTuple):
    """First defined nonzero ladder value on one side."""

    k: int
    value: int
    side: str  # "phi" | "psi"

    def describe(self) -> str:
        return f"{self.side}_{self.k} = {self.value}"


@dataclass(frozen=True)
class LadderEntry:
    """Raw ladder values at depth k.

    phi_defined / psi_defined flag whether all earlier values vanish;
    only then is the raw value a conjugacy invariant.
    """

    k: int
    phi: int
    psi: int
    phi_defined: bool
    psi_defined: bool

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "phi": self.phi,
            "psi": self.psi,
            "phi_defined": self.phi_defined,
            "psi_defined": self.psi_defined,
        }


@dataclass(frozen=True)
class FactorReport:
    """Unit-stripping data: source = (x-1)^k (y-1)^l h with h(1,1) = h11."""

    k: int
    l: int
    h11: int
    side: str  # "P" | "Q"

    @property
    def obstructs(self) -> bool:
        return self.h11 % 2 != 0

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "l": self.l,
            "h11": self.h11,
            "side": self.side,
            "paper_stated": self.side == "P",
        }


@dataclass(frozen=True)
class Verdict:
    kind: str  # one of _VERDICT_KINDS
    reason: Optional[str] = None
    witness: Optional[Witness] = None

    def __post_init__(self):
        if self.kind not in _VERDICT_KINDS:
            raise ValueError(f"unknown verdict kind {self.kind!r}")
        if self.kind == "TwoSquares" and self.witness is None:
            raise ValueError("a TwoSquares verdict needs a witness")

    def to_json(self) -> dict:
        if self.kind == "TwoSquares":
            return {
                "kind": self.kind,
                "witness": {"a": str(self.witness.a), "b": str(self.witness.b)},
            }
        return {"kind": self.kind, "reason": self.reason}


@dataclass
class ObstructionReport:
    """Everything analyze computed for one word."""

    word: Word
    expsums: tuple[int, int]
    chain: ChainPair
    f: Optional[Laurent1]
    g: Optional[Laurent1]
    ladder: list[LadderEntry]
    first_obstruction: Optional[FirstObstruction]
    factor: Optional[FactorReport]
    verdict: Verdict
    depth: int
    bound: int
    factors: tuple[FactorReport, ...] = ()
    search: Optional[SearchOutcome] = None

    def to_json(self) -> dict:
        first = self.first_obstruction
        return {
            "word": str(self.word),
            "expsums": list(self.expsums),
            "P": self.chain.P.to_json(),
            "Q": self.chain.Q.to_json(),
            "f": None if self.f is None else self.f.to_json(),
            "g": None if self.g is None else self.g.to_json(),
            "ladder": [entry.to_json() for entry in self.ladder],
            "first_obstruction": None
            if first is None
            else {"k": first.k, "value": first.value, "side": first.side},
            "factor": None if self.factor is None else self.factor.to_json(),
            "verdict": self.verdict.to_json(),
        }


def _require_loop(w: Word):
    sums = abelianize(w)
    if sums != (0, 0):
        raise NotALoopError(w, sums)


class _LadderPass(NamedTuple):
    f: Laurent1
    g: Laurent1
    entries: list[LadderEntry]
    first: Optional[FirstObstruction]
    parity: Optional[FirstObstruction]


def _ladder_pass(chain: ChainPair, depth: int) -> _LadderPass:
    """Collapse the chain, climb the ladder to depth, and pick the first
    nonzero value and the first odd one among the sides' first values.

    Each side's first value is found at the smallest k, phi before psi,
    so the order of discovery is the order of preference.
    """
    f = chain.P.substitute_x1()
    g = chain.Q.substitute_y1()
    entries = []
    firsts: dict[str, FirstObstruction] = {}
    for k in range(1, depth + 1):
        pk = f.taylor_coeff(k)
        sk = g.taylor_coeff(k)
        entries.append(LadderEntry(k, pk, sk, "phi" not in firsts, "psi" not in firsts))
        if pk and "phi" not in firsts:
            firsts["phi"] = FirstObstruction(k, pk, "phi")
        if sk and "psi" not in firsts:
            firsts["psi"] = FirstObstruction(k, sk, "psi")
    first = next(iter(firsts.values()), None)
    parity = next((o for o in firsts.values() if o.value % 2), None)
    return _LadderPass(f, g, entries, first, parity)


def _loop_pass(w: Word, depth: int) -> _LadderPass:
    if depth < 1:
        raise ValueError("depth must be >= 1")
    _require_loop(w)
    return _ladder_pass(lift_chain(w), depth)


def phi(w: Word) -> int:
    """f'(1) for f(y) = P(1, y): additive, conjugacy-invariant, and even
    on any product of two squares.  Requires zero exponent sums."""
    return _loop_pass(w, 1).entries[0].phi


def psi(w: Word) -> int:
    """g'(1) for g(x) = Q(x, 1); equal to -phi on every loop word."""
    return _loop_pass(w, 1).entries[0].psi


def ladder(w: Word, depth: int = DEFAULT_DEPTH) -> list[LadderEntry]:
    """Ladder values phi_k, psi_k for k = 1..depth, with definedness flags."""
    return _loop_pass(w, depth).entries


def first_obstruction(w: Word, depth: int = DEFAULT_DEPTH) -> Optional[FirstObstruction]:
    """Smallest-k defined nonzero ladder value within depth, either side.

    When both sides have one at the same k, the phi side is reported.
    None means no nonzero value up to the given depth (inconclusive
    unless f and g are identically zero).
    """
    return _loop_pass(w, depth).first


def parity_obstruction(w: Word, depth: int = DEFAULT_DEPTH) -> Optional[FirstObstruction]:
    """The first defined nonzero ladder value that is odd, if any.

    An odd value on either side proves w is not a product of two squares.
    """
    return _loop_pass(w, depth).parity


def factor_criterion(w: Word, side: str = "P") -> FactorReport:
    """Strip maximal unit factors from the chosen chain coefficient.

    Writes P (or Q) as (x-1)^k (y-1)^l h with h divisible by neither unit
    factor; h(1,1) odd proves w is not a product of two squares.  The Q
    side is a symmetric extension of the P-side criterion.  Raises
    InapplicableCriterionError when the chosen coefficient is zero.
    """
    _require_loop(w)
    return _factor_from_chain(lift_chain(w), side)


def _factor_from_chain(chain: ChainPair, side: str) -> FactorReport:
    if side not in ("P", "Q"):
        raise ValueError(f"side must be 'P' or 'Q', not {side!r}")
    poly = chain.P if side == "P" else chain.Q
    if not poly:
        raise InapplicableCriterionError(
            f"factor criterion inapplicable: {side} is the zero polynomial"
        )
    return FactorReport(*poly.strip_units(), side=side)


def analyze(
    w: Word,
    depth: int = DEFAULT_DEPTH,
    bound: Optional[int] = None,
    side: str = "P",
) -> ObstructionReport:
    """Run every criterion plus the witness search and combine verdicts.

    Precedence: an odd obstruction proves NotTwoSquares (the search is
    then skipped —  it could only confirm absence); otherwise a search hit
    gives TwoSquares with a re-verified witness; otherwise Unknown.
    Words with nonzero exponent sums get oracle-only treatment, since the
    obstruction theory lives on the commutator subgroup.  side selects
    which chain coefficients feed the factor criterion: "P", "Q", "both".
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if bound is None:
        bound = len(w)
    expsums = abelianize(w)
    chain = lift_chain(w)
    f = g = first = shown_factor = None
    entries: list[LadderEntry] = []
    factor_reports: list[FactorReport] = []
    verdict: Optional[Verdict] = None

    if expsums != (0, 0):
        inconclusive = f"exponent sums {expsums} != (0, 0): obstruction tests do not apply"
    else:
        inconclusive = f"no odd obstruction up to depth {depth}"
        f, g, entries, first, parity = _ladder_pass(chain, depth)
        sides = ("P", "Q") if side == "both" else (side,)
        for s in sides:
            try:
                factor_reports.append(_factor_from_chain(chain, s))
            except InapplicableCriterionError:
                pass
        odd_factor = next((fr for fr in factor_reports if fr.obstructs), None)
        shown_factor = odd_factor or next(iter(factor_reports), None)
        if parity is not None:
            verdict = Verdict("NotTwoSquares", reason=f"{parity.describe()} is odd")
        elif odd_factor is not None:
            verdict = Verdict(
                "NotTwoSquares",
                reason=(
                    f"factor criterion on {odd_factor.side}: "
                    f"h(1,1) = {odd_factor.h11} is odd"
                ),
            )

    search: Optional[SearchOutcome] = None
    if verdict is None:
        search = search_with_stats(w, bound)
        if search.witness is not None:
            verdict = Verdict("TwoSquares", witness=search.witness)
        else:
            verdict = Verdict(
                "Unknown",
                reason=(
                    f"{inconclusive}; no witness with |a| <= {bound} "
                    f"({search.checked} candidates checked)"
                ),
            )

    return ObstructionReport(
        word=w,
        expsums=expsums,
        chain=chain,
        f=f,
        g=g,
        ladder=entries,
        first_obstruction=first,
        factor=shown_factor,
        verdict=verdict,
        depth=depth,
        bound=bound,
        factors=tuple(factor_reports),
        search=search,
    )
