"""Word kernels: reduction, products, inverses, square roots, witness search."""

# Re-exported, not defined here, so a tracer patching kernel.mul skips the search's own calls.
from ._kernel_py import (
    BACKEND,
    inv,
    mul,
    reduce_word,
    search_square_pair,
    square_root,
    words_of_length,
)
