"""Unit stripping by repeated synthetic division: the test-only oracle.

This is the quotient-building algorithm that ``Laurent2.strip_units``
used before it read (k, l, h(1,1)) off the Taylor coefficients at (1, 1).
It builds the cofactor h explicitly, so the tests can check the cheap
moments against an independent, slow construction.
"""

from typing import Optional

from twosquares import Laurent2


def synth_div(p: Laurent2, axis: int) -> Optional[Laurent2]:
    """Quotient p / (x-1) (axis 0) or p / (y-1) (axis 1); None if the
    unit factor does not divide p.

    Per fixed exponent of the other variable, a slice sum_e c_e v^e is
    divisible by v-1 iff its coefficients sum to zero, and then the
    quotient coefficients are the negated prefix sums.
    """
    slices: dict[int, dict[int, int]] = {}
    for ij, c in p.items():
        slices.setdefault(ij[1 - axis], {})[ij[axis]] = c
    out: dict[tuple[int, int], int] = {}
    for other, sl in slices.items():
        if sum(sl.values()) != 0:
            return None
        prefix = 0
        for e in range(min(sl), max(sl)):
            prefix += sl.get(e, 0)
            if prefix:
                out[(e, other) if axis == 0 else (other, e)] = -prefix
    return Laurent2(out)


def reference_strip_units(p: Laurent2) -> tuple[int, int, Laurent2]:
    """(k, l, h) with (x-1)^k (y-1)^l h == p, h divisible by neither."""
    if not p:
        raise ValueError("strip_units is undefined on the zero polynomial")
    orders = []
    h = p
    for axis in (0, 1):
        t = 0
        while (q := synth_div(h, axis)) is not None:
            h = q
            t += 1
        orders.append(t)
    return orders[0], orders[1], h
