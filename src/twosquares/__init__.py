"""Products of two squares in the rank-2 free group: obstructions and witnesses.

Build words with parse() or Word(), lift them to chains on the Z^2 grid
with lift_chain(), evaluate the parity obstructions (phi, psi, the ladder,
the factor criterion), search for explicit a^2 b^2 witnesses, or run all
of it at once with analyze().
"""

from .kernel import BACKEND as KERNEL_BACKEND
from .words import (
    GEN_X,
    GEN_X_INV,
    GEN_Y,
    GEN_Y_INV,
    Generator,
    ParseError,
    Word,
    abelianize,
    commutator,
    conjugate,
    in_commutator_subgroup,
    parse,
    square_root,
    three_squares,
)
from .laurent import Laurent1, Laurent2
from .cover import (
    ChainPair,
    NotALoopError,
    homology_image,
    lift_chain,
    lift_trace,
)
from .obstructions import (
    DEFAULT_DEPTH,
    FactorReport,
    FirstObstruction,
    InapplicableCriterionError,
    LadderEntry,
    ObstructionReport,
    Verdict,
    analyze,
    factor_criterion,
    first_obstruction,
    ladder,
    parity_obstruction,
    phi,
    psi,
)
from .oracle import (
    SearchOutcome,
    Witness,
    conjugates_to_squares,
    count_reduced,
    enumerate_reduced,
    search_two_squares,
    search_with_stats,
    squares_to_conjugates,
)

__version__ = "0.1.0"

__all__ = [
    "KERNEL_BACKEND",
    "Generator",
    "GEN_X",
    "GEN_X_INV",
    "GEN_Y",
    "GEN_Y_INV",
    "ParseError",
    "Word",
    "abelianize",
    "commutator",
    "conjugate",
    "in_commutator_subgroup",
    "parse",
    "square_root",
    "three_squares",
    "Laurent1",
    "Laurent2",
    "ChainPair",
    "NotALoopError",
    "homology_image",
    "lift_chain",
    "lift_trace",
    "DEFAULT_DEPTH",
    "FactorReport",
    "FirstObstruction",
    "InapplicableCriterionError",
    "LadderEntry",
    "ObstructionReport",
    "Verdict",
    "analyze",
    "factor_criterion",
    "first_obstruction",
    "ladder",
    "parity_obstruction",
    "phi",
    "psi",
    "SearchOutcome",
    "Witness",
    "conjugates_to_squares",
    "count_reduced",
    "enumerate_reduced",
    "search_two_squares",
    "search_with_stats",
    "squares_to_conjugates",
    "__version__",
]
