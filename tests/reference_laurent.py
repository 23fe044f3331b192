"""Test-only oracles for the Laurent polynomials: unit stripping and text.

``reference_strip_units`` is the quotient-building algorithm that
``Laurent2.strip_units`` used before it read (k, l, h(1,1)) off the
Taylor coefficients at (1, 1).  It builds the cofactor h explicitly, so
the tests can check the cheap moments against an independent, slow
construction.

``reference_render`` builds each term's text from its exponents and
coefficient, one term at a time, as ``laurent._render`` did before it
joined texts looked up in piece tables; ``reference_str`` and
``reference_to_str`` are ``str(Laurent2)`` and ``Laurent1.to_str`` by it.
"""

from typing import Iterable, Optional

from twosquares import Laurent1, Laurent2


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


def reference_render(terms: Iterable[tuple[tuple[int, ...], int]], var_names: tuple[str, ...]) -> str:
    """Human form, terms in the given order: e.g. '-1 + x - x*y + y^-2'."""
    parts: list[str] = []
    for exps, c in terms:
        factors = []
        for e, v in zip(exps, var_names):
            if e == 1:
                factors.append(v)
            elif e != 0:
                factors.append(f"{v}^{e}")
        mono = "*".join(factors)
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(parts) if parts else "0"


def reference_str(p: Laurent2) -> str:
    return reference_render(sorted(p.items()), ("x", "y"))


def reference_to_str(f: Laurent1, var: str = "t") -> str:
    return reference_render([((n,), c) for n, c in sorted(f.items())], (var,))
