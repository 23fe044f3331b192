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
for a product of two squares.  On any word g'(1) is the signed area of
its path, so psi_1's parity extends off the loops: exponent sums both
0 mod 4 and an odd area refute.  Last, any word whose image under four
maps onto SL(2,3) is not a product of two squares in their joint image
is refuted (``quotients``).  All criteria are one-sided: they can
refute, never confirm.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple, Optional

from . import quotients
from .cover import ChainPair, NotALoopError, lift_chain
from .laurent import Laurent1
from .oracle import SearchOutcome, Witness, _search_bound, search_with_stats
from .words import Word, abelianize

DEFAULT_DEPTH = 8
# a rung costs time and memory, so the depth is capped: [x,y] at this
# depth takes about 0.03 s and 1.2 MB, at 10^5 about 12 MB
MAX_DEPTH = 10_000

_VERDICT_KINDS = ("TwoSquares", "NotTwoSquares", "Unknown")

JOINT_IMAGE_REASON = (
    "its image under the four mod-3 maps onto SL(2,3) is not a product of two squares"
    f" in their joint image (order {quotients.JOINT_ORDER})"
)


class FirstObstruction(NamedTuple):
    """First defined nonzero ladder value on one side."""

    k: int
    value: int
    side: str  # "phi" | "psi"

    def describe(self) -> str:
        return f"{self.side}_{self.k} = {self.value}"


class LadderEntry(NamedTuple):
    """Raw ladder values at depth k.

    phi_defined / psi_defined flag whether all earlier values vanish;
    only then is the raw value a conjugacy invariant.
    """

    k: int
    phi: int
    psi: int
    phi_defined: bool
    psi_defined: bool


class FactorReport(NamedTuple):
    """Unit-stripping data of P: P = (x-1)^k (y-1)^l h with h(1,1) = h11."""

    k: int
    l: int
    h11: int

    @property
    def obstructs(self) -> bool:
        return self.h11 % 2 != 0

    def to_json(self) -> dict:
        return {**self._asdict(), "side": "P", "paper_stated": True}


class Verdict(namedtuple("Verdict", "kind reason witness", defaults=(None, None))):
    """Checked on every path to an instance, _make and _replace included."""

    __slots__ = ()

    def __new__(cls, kind: str, reason: Optional[str] = None, witness: Optional[Witness] = None):
        if kind not in _VERDICT_KINDS:
            raise ValueError(f"unknown verdict kind {kind!r}")
        if kind == "TwoSquares" and witness is None:
            raise ValueError("a TwoSquares verdict needs a witness")
        return super().__new__(cls, kind, reason, witness)

    @classmethod
    def _make(cls, iterable) -> "Verdict":
        return cls(*iterable)

    def to_json(self) -> dict:
        if self.kind == "TwoSquares":
            return {
                "kind": self.kind,
                "witness": {"a": str(self.witness.a), "b": str(self.witness.b)},
            }
        return {"kind": self.kind, "reason": self.reason}


class ObstructionReport(NamedTuple):
    """Everything analyze computed for one word."""

    word: Word
    expsums: tuple[int, int]
    chain: ChainPair
    f: Optional[Laurent1]
    g: Optional[Laurent1]
    ladder: list[LadderEntry]
    first_obstruction: Optional[FirstObstruction]
    verdict: Verdict
    factor: Optional[FactorReport] = None
    search: Optional[SearchOutcome] = None

    def to_json(self) -> dict:
        first = self.first_obstruction
        return {
            "word": str(self.word),
            "expsums": list(self.expsums),
            **self.chain.to_json(),
            "f": None if self.f is None else self.f.to_json(),
            "g": None if self.g is None else self.g.to_json(),
            "ladder": [entry._asdict() for entry in self.ladder],
            "first_obstruction": None if first is None else first._asdict(),
            "factor": None if self.factor is None else self.factor.to_json(),
            "verdict": self.verdict.to_json(),
        }


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


def _check_depth(depth: int) -> None:
    """Refuse a ladder depth outside 1..MAX_DEPTH."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if depth > MAX_DEPTH:
        raise ValueError(f"depth must be <= {MAX_DEPTH}")


def phi(w: Word) -> int:
    """f'(1) for f(y) = P(1, y): additive, conjugacy-invariant, and even
    on any product of two squares.  Requires zero exponent sums."""
    return ladder(w, 1)[0].phi


def ladder(w: Word, depth: int = DEFAULT_DEPTH) -> list[LadderEntry]:
    """Ladder values phi_k, psi_k for k = 1..depth, with definedness flags."""
    _check_depth(depth)
    expsums = abelianize(w)
    if expsums != (0, 0):
        raise NotALoopError(w, expsums)
    return _ladder_pass(lift_chain(w), depth).entries


def _factor_report(chain: ChainPair, phi1: int) -> Optional[FactorReport]:
    """The factor criterion on P, or None when P is zero.

    A loop's chain is a cycle, P(x-1) + Q(y-1) = 0, so P = (y-1) R and
    Q = -(x-1) R for one R: Q is zero iff P is, and when P strips to
    (k, l, h11), Q strips to (k+1, l-1, -h11), so Q obstructs iff P
    does and P's report is the only one kept.  It is (0, 1, phi1) when
    phi1 = f'(1) != 0, f(y) = P(1, y): f != 0, so x-1 does not divide
    P; the cycle law makes y-1 divide it; (y-1)^2 would make f'(1)
    vanish; and P = (y-1) h gives h(1, 1) = f'(1).  Only when phi1 = 0
    is P stripped, once.
    """
    if not chain.P:
        return None
    return FactorReport(0, 1, phi1) if phi1 else FactorReport(*chain.P.strip_units())


def analyze(w: Word, depth: int = DEFAULT_DEPTH, bound: Optional[int] = None) -> ObstructionReport:
    """Run every criterion plus the witness search and combine verdicts.

    Precedence: an odd exponent sum proves NotTwoSquares, since every
    a^2 b^2 has even ones; so do sums both 0 mod 4 with an odd signed
    area (README gives the proof), on a loop word an odd obstruction,
    and then on any word an image in the four maps' joint image that is
    not u^2 v^2 there (``quotients``).  The search is skipped then: it
    could only confirm absence.  Otherwise a search hit gives TwoSquares
    with a re-verified witness; otherwise Unknown.  The ladder and the factor criterion run
    only on loop words, since the obstruction theory lives on the
    commutator subgroup.  The factor criterion is reported on P only:
    Q's report, (k+1, l-1, -h11) by the cycle law, is the CLI's to show.
    The bound defaults to |w|, at most oracle.DEFAULT_BOUND_CAP.
    """
    _check_depth(depth)
    bound = _search_bound(w, bound)
    expsums = abelianize(w)
    chain = lift_chain(w)
    f = g = first = None
    entries: list[LadderEntry] = []
    factor: Optional[FactorReport] = None
    verdict: Optional[Verdict] = None

    if expsums[0] % 2 or expsums[1] % 2:
        verdict = Verdict(
            "NotTwoSquares",
            reason=f"exponent sums {expsums}: every a^2 b^2 has even exponent sums",
        )
    elif expsums != (0, 0):
        inconclusive = f"exponent sums {expsums} != (0, 0): obstruction tests do not apply"
        if expsums[0] % 4 == expsums[1] % 4 == 0:
            area = chain.Q.substitute_y1().taylor_coeff(1)  # the integral of x dy: g'(1)
            if area % 2:
                verdict = Verdict(
                    "NotTwoSquares",
                    reason=f"exponent sums {expsums} are 0 mod 4 and the signed area {area} is odd",
                )
            else:
                inconclusive = f"exponent sums {expsums} are 0 mod 4 but the signed area {area} is even"
    else:
        inconclusive = f"no odd obstruction up to depth {depth}"
        f, g, entries, first, parity = _ladder_pass(chain, depth)
        factor = _factor_report(chain, entries[0].phi)
        if parity is not None:
            verdict = Verdict("NotTwoSquares", reason=f"{parity.describe()} is odd")
        elif factor is not None and factor.obstructs:
            verdict = Verdict(
                "NotTwoSquares", reason=f"factor criterion on P: h(1,1) = {factor.h11} is odd"
            )

    search: Optional[SearchOutcome] = None
    if verdict is None:
        if quotients.refutes(w.codes):
            verdict = Verdict("NotTwoSquares", reason=JOINT_IMAGE_REASON)
        else:
            search = search_with_stats(w, bound)
            if search.witness is not None:
                verdict = Verdict("TwoSquares", witness=search.witness)
            else:
                verdict = Verdict("Unknown", reason=f"{inconclusive}; {search.describe_miss()}")

    return ObstructionReport(
        word=w,
        expsums=expsums,
        chain=chain,
        f=f,
        g=g,
        ladder=entries,
        first_obstruction=first,
        verdict=verdict,
        factor=factor,
        search=search,
    )
