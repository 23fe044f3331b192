"""Products of two squares in the rank-2 free group: obstructions and witnesses.

Build words with parse() or Word(), lift them to chains on the Z^2 grid
with lift_chain(), read the obstruction ladder with ladder() (phi() is
its first rung), search for explicit a^2 b^2 witnesses, or run every
criterion, the factor criterion included, with analyze().
"""

from .kernel import BACKEND as KERNEL_BACKEND
from .words import (
    ParseError,
    Word,
    abelianize,
    commutator,
    conjugate,
    in_commutator_subgroup,
    parse,
    square_root,
)
from .laurent import Laurent1, Laurent2
from .cover import (
    ChainPair,
    NotALoopError,
    lift_chain,
    lift_trace,
)
from .obstructions import (
    DEFAULT_DEPTH,
    FactorReport,
    FirstObstruction,
    LadderEntry,
    ObstructionReport,
    Verdict,
    analyze,
    ladder,
    phi,
)
from .oracle import (
    SearchOutcome,
    Witness,
    enumerate_reduced,
    search_with_stats,
)

__version__ = "0.1.0"

__all__ = [
    "KERNEL_BACKEND",
    "ParseError",
    "Word",
    "abelianize",
    "commutator",
    "conjugate",
    "in_commutator_subgroup",
    "parse",
    "square_root",
    "Laurent1",
    "Laurent2",
    "ChainPair",
    "NotALoopError",
    "lift_chain",
    "lift_trace",
    "DEFAULT_DEPTH",
    "FactorReport",
    "FirstObstruction",
    "LadderEntry",
    "ObstructionReport",
    "Verdict",
    "analyze",
    "ladder",
    "phi",
    "SearchOutcome",
    "Witness",
    "enumerate_reduced",
    "search_with_stats",
    "__version__",
]
