"""Reference grid lift for the differential tests: the tuple-keyed walk.

It walks the lattice one letter at a time and names each edge by the
point (i, j) of its lower-left end, as a tuple, so it needs no key
encoding and no decoding.  It stays here, test-only, as the oracle that
``twosquares.cover.lift_chain`` (int keys, decoded once) is compared
against.
"""

from twosquares import ChainPair, Laurent2, Word


def reference_lift(w: Word) -> ChainPair:
    """Chain of the lift of w from the origin: x and X on P, y and Y on Q."""
    P: dict[tuple[int, int], int] = {}
    Q: dict[tuple[int, int], int] = {}
    i = j = 0
    for letter in "".join("xXyY"[c] for c in w.codes):
        if letter == "x":
            P[i, j] = P.get((i, j), 0) + 1
            i += 1
        elif letter == "X":
            i -= 1
            P[i, j] = P.get((i, j), 0) - 1
        elif letter == "y":
            Q[i, j] = Q.get((i, j), 0) + 1
            j += 1
        else:
            j -= 1
            Q[i, j] = Q.get((i, j), 0) - 1
    return ChainPair(Laurent2(P), Laurent2(Q))
