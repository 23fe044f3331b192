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
from math import comb
from operator import itemgetter
from typing import Iterable, Mapping, Optional


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

    def __mul__(self, other):
        add = self._add_exp
        return self._raw(_collect(
            (add(e1, e2), c1 * c2)
            for e1, c1 in self._terms.items()
            for e2, c2 in other._terms.items()
        ))


class Laurent1(_Sparse):
    """Univariate integer Laurent polynomial, exponent -> coefficient."""

    __slots__ = ()

    @staticmethod
    def _add_exp(n1: int, n2: int) -> int:
        return n1 + n2

    def taylor_coeff(self, k: int) -> int:
        """The exact integer f^(k)(1)/k!, for k >= 0.

        Term by term: c*t^n contributes c*C(n, k), the generalised
        binomial n(n-1)...(n-k+1)/k!.  For n < 0 the reflection
        C(n, k) = (-1)^k C(k-n-1, k) leaves one math.comb call per term.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        pos = neg = 0
        for n, c in self._terms.items():
            if n >= 0:
                pos += c * comb(n, k)
            else:
                neg += c * comb(k - n - 1, k)
        return pos - neg if k & 1 else pos + neg

    def to_json(self) -> list[list[int]]:
        return [[n, self._terms[n]] for n in sorted(self._terms)]

    def to_str(self, var: str = "t") -> str:
        terms, signed, power = self._terms, _SIGNED, _POWERS[var]
        return _render([signed[terms[n]] + power[n] for n in sorted(terms)])

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
        terms, signed, x, y = self._terms, _SIGNED, _X, _POWERS["y"]
        return _render([signed[terms[k]] + x[k[0]] + y[k[1]] for k in sorted(terms)])

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


def _render(terms: list[str]) -> str:
    """Human form of term texts in the given order: e.g. '-1 + x - x*y + y^-2'.

    A term's text is its sign and coefficient, '+ 3*' or '- 1*', then its
    power of x followed by '*' and its power of y, each left out at
    exponent 0: '- 1*x^2*', '+ 3*y'.  With a space after every term, a
    '*' before a space can only end a term without y, and ' 1*' only be
    a unit coefficient; both go, and the first term loses its '+ '.
    """
    if not terms:
        return "0"
    text = (" ".join(terms) + " ").replace("* ", " ").replace(" 1*", " ")
    return text[2:-1] if text[0] == "+" else "-" + text[2:-1]


class _Texts(dict):
    """The text of each key, made at its first lookup and kept for later
    polynomials; emptied at _TEXTS_MAX keys, so it stays small.  A text
    depends on its key alone, so what a lookup returns does not depend on
    what was looked up before, in this thread or another."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        if len(self) >= _TEXTS_MAX:
            self.clear()
        text = self[key] = self.make(key)
        return text


_TEXTS_MAX = 1 << 14


def _power(v: str, e: int) -> str:
    return "" if not e else v if e == 1 else f"{v}^{e}"


# The pieces of a term's text in _render: sign and coefficient, x's power,
# and (per variable name) y's power.  They are shared by all polynomials:
# a chain of a short word has about as many distinct pieces as terms, so
# tables built per polynomial would cost more than they save.
_SIGNED = _Texts(lambda c: f"- {-c}*" if c < 0 else f"+ {c}*")
_X = _Texts(lambda i: _power("x", i) + "*" if i else "")
_POWERS = _Texts(lambda v: _Texts(lambda e: _power(v, e)))
