"""Sparse Laurent polynomials over the integers, in one and two variables.

Coefficients are Python ints (arbitrary precision); a polynomial is a map
from exponents to nonzero coefficients, so equality of maps is equality
of polynomials.  Everything is exact: division either succeeds exactly or
reports failure, and Taylor coefficients at 1 are computed as integers
via falling factorials (the k-th derivative of an integer Laurent
polynomial is always divisible by k!).
"""

from __future__ import annotations

from math import factorial
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


class Laurent1:
    """Univariate integer Laurent polynomial, exponent -> coefficient."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[Mapping[int, int]] = None):
        self._terms = {n: c for n, c in (terms or {}).items() if c != 0}

    @classmethod
    def _raw(cls, terms: dict[int, int]) -> "Laurent1":
        p = cls.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def zero(cls) -> "Laurent1":
        return cls._raw({})

    @classmethod
    def monomial(cls, n: int, c: int = 1) -> "Laurent1":
        return cls({n: c})

    def items(self):
        return self._terms.items()

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Laurent1) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "Laurent1") -> "Laurent1":
        terms = dict(self._terms)
        for n, c in other._terms.items():
            s = terms.get(n, 0) + c
            if s:
                terms[n] = s
            else:
                terms.pop(n, None)
        return Laurent1._raw(terms)

    def __neg__(self) -> "Laurent1":
        return Laurent1._raw({n: -c for n, c in self._terms.items()})

    def __sub__(self, other: "Laurent1") -> "Laurent1":
        return self + (-other)

    def __mul__(self, other: Union["Laurent1", int]) -> "Laurent1":
        if isinstance(other, int):
            if other == 0:
                return Laurent1.zero()
            return Laurent1._raw({n: c * other for n, c in self._terms.items()})
        terms: dict[int, int] = {}
        for n1, c1 in self._terms.items():
            for n2, c2 in other._terms.items():
                n = n1 + n2
                s = terms.get(n, 0) + c1 * c2
                if s:
                    terms[n] = s
                else:
                    terms.pop(n, None)
        return Laurent1._raw(terms)

    __rmul__ = __mul__

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


class Laurent2:
    """Bivariate integer Laurent polynomial, (i, j) exponent pair -> coefficient.

    >>> (Laurent2.x() - Laurent2.one()) * (Laurent2.y() - Laurent2.one())
    Laurent2('1 - y - x + x*y')
    >>> Laurent2.x().monomial_mul(-2, 1)
    Laurent2('x^-1*y')
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[Mapping[tuple[int, int], int]] = None):
        self._terms = {ij: c for ij, c in (terms or {}).items() if c != 0}

    @classmethod
    def _raw(cls, terms: dict[tuple[int, int], int]) -> "Laurent2":
        p = cls.__new__(cls)
        p._terms = terms
        return p

    @classmethod
    def zero(cls) -> "Laurent2":
        return cls._raw({})

    @classmethod
    def one(cls) -> "Laurent2":
        return cls._raw({(0, 0): 1})

    @classmethod
    def x(cls) -> "Laurent2":
        return cls._raw({(1, 0): 1})

    @classmethod
    def y(cls) -> "Laurent2":
        return cls._raw({(0, 1): 1})

    @classmethod
    def monomial(cls, i: int, j: int, c: int = 1) -> "Laurent2":
        return cls({(i, j): c})

    def items(self):
        return self._terms.items()

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Laurent2) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "Laurent2") -> "Laurent2":
        terms = dict(self._terms)
        for ij, c in other._terms.items():
            s = terms.get(ij, 0) + c
            if s:
                terms[ij] = s
            else:
                terms.pop(ij, None)
        return Laurent2._raw(terms)

    def __neg__(self) -> "Laurent2":
        return Laurent2._raw({ij: -c for ij, c in self._terms.items()})

    def __sub__(self, other: "Laurent2") -> "Laurent2":
        return self + (-other)

    def __mul__(self, other: Union["Laurent2", int]) -> "Laurent2":
        if isinstance(other, int):
            if other == 0:
                return Laurent2.zero()
            return Laurent2._raw({ij: c * other for ij, c in self._terms.items()})
        terms: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                ij = (i1 + i2, j1 + j2)
                s = terms.get(ij, 0) + c1 * c2
                if s:
                    terms[ij] = s
                else:
                    terms.pop(ij, None)
        return Laurent2._raw(terms)

    __rmul__ = __mul__

    def monomial_mul(self, a: int, b: int) -> "Laurent2":
        """Multiply by x^a y^b: shift every exponent pair by (a, b)."""
        return Laurent2._raw({(i + a, j + b): c for (i, j), c in self._terms.items()})

    def substitute_x1(self) -> Laurent1:
        """Set x = 1: collapse x^i y^j to y^j."""
        terms: dict[int, int] = {}
        for (_, j), c in self._terms.items():
            s = terms.get(j, 0) + c
            if s:
                terms[j] = s
            else:
                terms.pop(j, None)
        return Laurent1._raw(terms)

    def substitute_y1(self) -> Laurent1:
        """Set y = 1: collapse x^i y^j to x^i."""
        terms: dict[int, int] = {}
        for (i, _), c in self._terms.items():
            s = terms.get(i, 0) + c
            if s:
                terms[i] = s
            else:
                terms.pop(i, None)
        return Laurent1._raw(terms)

    def eval11(self) -> int:
        """Value at x = y = 1: the sum of all coefficients."""
        return sum(self._terms.values())

    def divide_exact(self, d: "Laurent2") -> Optional["Laurent2"]:
        """The exact quotient q with q*d == self, or None if none exists.

        Long division in x with coefficients in Z[y, y^-1], dividing the
        coefficient polynomials exactly at each step.  Exponent bounds of
        the quotient (which are forced, since leading and trailing terms
        multiply) cut off non-terminating cases.
        """
        if not d:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self._terms:
            return Laurent2.zero()

        d_max_x = max(i for i, _ in d._terms)
        d_min_x = min(i for i, _ in d._terms)
        p_max_x = max(i for i, _ in self._terms)
        p_min_x = min(i for i, _ in self._terms)
        q_min_x = p_min_x - d_min_x
        lead_d = Laurent1._raw({j: c for (i, j), c in d._terms.items() if i == d_max_x})

        remainder = dict(self._terms)
        quotient: dict[tuple[int, int], int] = {}
        while remainder:
            r_max_x = max(i for i, _ in remainder)
            shift = r_max_x - d_max_x
            if shift < q_min_x:
                return None
            lead_r = Laurent1._raw(
                {j: c for (i, j), c in remainder.items() if i == r_max_x}
            )
            qc = _divide_exact_1(lead_r, lead_d)
            if qc is None:
                return None
            for jq, cq in qc.items():
                quotient[(shift, jq)] = cq
                for (i, j), c in d._terms.items():
                    ij = (i + shift, j + jq)
                    s = remainder.get(ij, 0) - cq * c
                    if s:
                        remainder[ij] = s
                    else:
                        remainder.pop(ij, None)
        return Laurent2._raw(quotient)

    def strip_units(self) -> tuple[int, int, "Laurent2"]:
        """Factor out maximal powers of (x-1) and (y-1).

        Returns (k, l, h) with (x-1)^k (y-1)^l h == self and h divisible
        by neither x-1 nor y-1.  Undefined on the zero polynomial.
        """
        if not self._terms:
            raise ValueError("strip_units is undefined on the zero polynomial")
        k = 0
        h = self
        while True:
            q = _synth_div_x1(h)
            if q is None:
                break
            h = q
            k += 1
        l = 0
        while True:
            q = _synth_div_y1(h)
            if q is None:
                break
            h = q
            l += 1
        return k, l, h

    def to_json(self) -> list[list[int]]:
        return [[i, j, self._terms[(i, j)]] for i, j in sorted(self._terms)]

    def __str__(self) -> str:
        return _render(sorted(self._terms.items()), ("x", "y"))

    def __repr__(self) -> str:
        return f"Laurent2('{self}')"


def _divide_exact_1(p: Laurent1, d: Laurent1) -> Optional[Laurent1]:
    """Exact division in Z[t, t^-1]; None when p is not a multiple of d."""
    if not d:
        raise ZeroDivisionError("division by the zero polynomial")
    if not p:
        return Laurent1.zero()
    d_terms = d._terms
    d_max = max(d_terms)
    d_min = min(d_terms)
    p_min = min(p._terms)
    q_min = p_min - d_min
    lead_d = d_terms[d_max]

    remainder = dict(p._terms)
    quotient: dict[int, int] = {}
    while remainder:
        r_max = max(remainder)
        shift = r_max - d_max
        if shift < q_min:
            return None
        c, rem = divmod(remainder[r_max], lead_d)
        if rem:
            return None
        quotient[shift] = c
        for n, cd in d_terms.items():
            m = n + shift
            s = remainder.get(m, 0) - c * cd
            if s:
                remainder[m] = s
            else:
                remainder.pop(m, None)
    return Laurent1._raw(quotient)


def _synth_div_x1(p: Laurent2) -> Optional[Laurent2]:
    """Quotient p / (x-1), or None if x-1 does not divide p.

    Per fixed y-exponent, a slice sum_i c_i x^i is divisible by x-1 iff
    its coefficients sum to zero, and then the quotient coefficients are
    the negated prefix sums.
    """
    slices: dict[int, dict[int, int]] = {}
    for (i, j), c in p._terms.items():
        slices.setdefault(j, {})[i] = c
    out: dict[tuple[int, int], int] = {}
    for j, sl in slices.items():
        if sum(sl.values()) != 0:
            return None
        lo, hi = min(sl), max(sl)
        prefix = 0
        for i in range(lo, hi):
            prefix += sl.get(i, 0)
            if prefix:
                out[(i, j)] = -prefix
    return Laurent2._raw(out)


def _synth_div_y1(p: Laurent2) -> Optional[Laurent2]:
    """Quotient p / (y-1), or None if y-1 does not divide p."""
    slices: dict[int, dict[int, int]] = {}
    for (i, j), c in p._terms.items():
        slices.setdefault(i, {})[j] = c
    out: dict[tuple[int, int], int] = {}
    for i, sl in slices.items():
        if sum(sl.values()) != 0:
            return None
        lo, hi = min(sl), max(sl)
        prefix = 0
        for j in range(lo, hi):
            prefix += sl.get(j, 0)
            if prefix:
                out[(i, j)] = -prefix
    return Laurent2._raw(out)


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
