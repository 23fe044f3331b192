"""Sparse Laurent polynomials over the integers, in one and two variables.

Coefficients are Python ints (arbitrary precision); a polynomial is a map
from exponents to nonzero coefficients, so equality of maps is equality
of polynomials.  Everything is exact.  Taylor coefficients at 1 are
binomial moments: with C(n, a) the generalised binomial, x^n expands at
x = 1 as sum_a C(n, a) (x-1)^a for every integer n, so the coefficient
of (x-1)^a of sum_n c_n x^n is the integer sum_n c_n C(n, a).
"""

from __future__ import annotations

from itertools import chain
from math import factorial
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Union


def _binom_falling(n: int, k: int) -> int:
    """n(n-1)...(n-k+1)/k! as an exact integer; valid for any integer n."""
    num = 1
    for t in range(k):
        num *= n - t
    q, r = divmod(num, factorial(k))
    if r:
        raise ArithmeticError(f"{k}! does not divide the falling factorial of {n}")
    return q


def _collect(pairs: Iterable[tuple]) -> dict:
    """Sum the coefficients of (exponent, coefficient) pairs, dropping zeros."""
    terms: dict = {}
    for e, c in pairs:
        s = terms.get(e, 0) + c
        if s:
            terms[e] = s
        else:
            terms.pop(e, None)
    return terms


class _Sparse:
    """Exponent -> nonzero coefficient; the ring operations of both types."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[Mapping] = None):
        self._terms = {e: c for e, c in (terms or {}).items() if c != 0}

    @classmethod
    def _raw(cls, terms: dict):
        p = cls.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def zero(cls):
        return cls._raw({})

    def items(self):
        return self._terms.items()

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        return self._raw(_collect(chain(self._terms.items(), other._terms.items())))

    def __neg__(self):
        return self._raw({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: Union["_Sparse", int]):
        if isinstance(other, int):
            if other == 0:
                return self.zero()
            return self._raw({e: c * other for e, c in self._terms.items()})
        add = self._add_exp
        return self._raw(_collect(
            (add(e1, e2), c1 * c2)
            for e1, c1 in self._terms.items()
            for e2, c2 in other._terms.items()
        ))

    __rmul__ = __mul__


class Laurent1(_Sparse):
    """Univariate integer Laurent polynomial, exponent -> coefficient."""

    __slots__ = ()

    @staticmethod
    def _add_exp(n1: int, n2: int) -> int:
        return n1 + n2

    def taylor_coeff(self, k: int) -> int:
        """The exact integer f^(k)(1)/k!, for k >= 0.

        Term by term: the k-th derivative of c*t^n contributes
        c * n(n-1)...(n-k+1) at t=1, and that falling factorial is
        divisible by k!; negative n included.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        return sum(c * _binom_falling(n, k) for n, c in self._terms.items())

    def to_json(self) -> list[list[int]]:
        return [[n, self._terms[n]] for n in sorted(self._terms)]

    def to_str(self, var: str = "t") -> str:
        return _render([((n,), c) for n, c in sorted(self._terms.items())], (var,))

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"Laurent1({self._terms!r})"


class Laurent2(_Sparse):
    """Bivariate integer Laurent polynomial, (i, j) exponent pair -> coefficient.

    >>> (Laurent2.x() - Laurent2.one()) * (Laurent2.y() - Laurent2.one())
    Laurent2('1 - y - x + x*y')
    >>> Laurent2.x().monomial_mul(-2, 1)
    Laurent2('x^-1*y')
    """

    __slots__ = ()

    @classmethod
    def one(cls) -> "Laurent2":
        return cls._raw({(0, 0): 1})

    @classmethod
    def x(cls) -> "Laurent2":
        return cls._raw({(1, 0): 1})

    @classmethod
    def y(cls) -> "Laurent2":
        return cls._raw({(0, 1): 1})

    @staticmethod
    def _add_exp(e1: tuple[int, int], e2: tuple[int, int]) -> tuple[int, int]:
        return e1[0] + e2[0], e1[1] + e2[1]

    def monomial_mul(self, a: int, b: int) -> "Laurent2":
        """Multiply by x^a y^b: shift every exponent pair by (a, b)."""
        return Laurent2._raw({(i + a, j + b): c for (i, j), c in self._terms.items()})

    def _collapse(self, keep: int) -> Laurent1:
        terms = self._terms
        return Laurent1._raw(_collect(zip(map(itemgetter(keep), terms), terms.values())))

    def substitute_x1(self) -> Laurent1:
        """Set x = 1: collapse x^i y^j to y^j."""
        return self._collapse(1)

    def substitute_y1(self) -> Laurent1:
        """Set y = 1: collapse x^i y^j to x^i."""
        return self._collapse(0)

    def eval11(self) -> int:
        """Value at x = y = 1: the sum of all coefficients."""
        return sum(self._terms.values())

    def strip_units(self) -> tuple[int, int, int]:
        """The maximal powers of (x-1) and (y-1) dividing self, and the
        value of the cofactor at (1, 1).

        Returns (k, l, h11) with self = (x-1)^k (y-1)^l h, h divisible by
        neither x-1 nor y-1, and h11 = h(1, 1).  Expanding at (1, 1),
        h(1, 1) is the coefficient of (x-1)^k (y-1)^l, the binomial moment
        sum c_ij C(i, k) C(j, l); h itself is never built.  Undefined on
        the zero polynomial.
        """
        if not self._terms:
            raise ValueError("strip_units is undefined on the zero polynomial")
        k, binom_x = _unit_order(self._terms, 0)
        l, binom_y = _unit_order(self._terms, 1)
        h11 = sum(c * binom_x[i] * binom_y[j] for (i, j), c in self._terms.items())
        return k, l, h11

    def to_json(self) -> list[list[int]]:
        return [[i, j, self._terms[(i, j)]] for i, j in sorted(self._terms)]

    def __str__(self) -> str:
        return _render(sorted(self._terms.items()), ("x", "y"))

    def __repr__(self) -> str:
        return f"Laurent2('{self}')"


def _unit_order(terms: dict[tuple[int, int], int], axis: int) -> tuple[int, dict[int, int]]:
    """The multiplicity t of the unit factor (v-1), v the variable on axis,
    and C(e, t) for every exponent e on that axis.

    (v-1)^t divides the polynomial iff every slice along the axis (the
    other exponent fixed) vanishes at v = 1 to order t, that is iff its
    moments sum_e c_e C(e, s) vanish for all s < t.  C(e, s) steps to
    C(e, s+1) = C(e, s) (e-s) / (s+1), an exact division.
    """
    binom = dict.fromkeys({ij[axis] for ij in terms}, 1)
    other = 1 - axis
    t = 0
    while True:
        moments: dict[int, int] = {}
        for ij, c in terms.items():
            o = ij[other]
            moments[o] = moments.get(o, 0) + c * binom[ij[axis]]
        if any(moments.values()):
            return t, binom
        binom = {e: b * (e - t) // (t + 1) for e, b in binom.items()}
        t += 1


def _render(terms: Iterable[tuple[tuple[int, ...], int]], var_names: tuple[str, ...]) -> str:
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
