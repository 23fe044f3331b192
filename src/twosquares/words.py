"""Elements of the rank-2 free group on x and y, as canonically reduced words.

Words are reduced eagerly at construction, so ``==`` on Word is group
equality.  The letter alphabet is x, X, y, Y with X = x^-1 and Y = y^-1;
internally a word is a bytes string of letter codes (see kernel).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from . import kernel

_CHARS = "xXyY"
_CODE_OF = {"x": 0, "X": 1, "y": 2, "Y": 3}

# Exponents in word expressions are capped at machine-integer range;
# anything larger is a parse error, never a silent wrap.
MAX_EXPONENT = 2**63 - 1


class ParseError(ValueError):
    """Malformed word expression; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


@dataclass(frozen=True)
class Generator:
    """One of the four letters: x or y with sign +1, or their inverses."""

    letter: str  # 'x' or 'y'
    sign: int  # +1 or -1

    @property
    def code(self) -> int:
        c = 0 if self.letter == "x" else 2
        return c if self.sign > 0 else c | 1

    def inverse(self) -> "Generator":
        return _GENERATORS[self.code ^ 1]

    def __str__(self) -> str:
        return _CHARS[self.code]


_GENERATORS = (
    Generator("x", 1),
    Generator("x", -1),
    Generator("y", 1),
    Generator("y", -1),
)
GEN_X, GEN_X_INV, GEN_Y, GEN_Y_INV = _GENERATORS

LettersLike = Union[str, bytes, bytearray, Iterable[Union[int, Generator]]]


class Word:
    """A freely reduced word in x, y and their inverses.

    Accepts a plain letter string over xXyY, a bytes string of letter
    codes, or an iterable of codes / Generator values; reduction happens
    here, so every Word is canonical.  Immutable by convention: no method
    mutates, all operations return fresh words.

    >>> Word("xX")
    Word('e')
    >>> Word("xy") * Word("Yx")
    Word('x^2')
    """

    __slots__ = ("_letters",)

    def __init__(self, letters: LettersLike = b""):
        if isinstance(letters, Word):
            self._letters = letters._letters
            return
        if isinstance(letters, str):
            try:
                codes = bytes(_CODE_OF[ch] for ch in letters)
            except KeyError as exc:
                raise ValueError(f"not a word letter: {exc.args[0]!r}") from None
        elif isinstance(letters, (bytes, bytearray)):
            codes = bytes(letters)
        else:
            codes = bytes(g.code if isinstance(g, Generator) else g for g in letters)
        if any(c > 3 for c in codes):
            raise ValueError("letter codes must be in 0..3")
        self._letters = kernel.reduce_word(codes)

    @classmethod
    def _from_reduced(cls, data: bytes) -> "Word":
        w = cls.__new__(cls)
        w._letters = data
        return w

    @classmethod
    def identity(cls) -> "Word":
        return _IDENTITY

    @property
    def codes(self) -> bytes:
        return self._letters

    @property
    def letters(self) -> tuple[Generator, ...]:
        return tuple(_GENERATORS[c] for c in self._letters)

    def is_identity(self) -> bool:
        return not self._letters

    def __len__(self) -> int:
        return len(self._letters)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self._letters == other._letters

    def __hash__(self) -> int:
        return hash(self._letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word._from_reduced(kernel.mul(self._letters, other._letters))

    def __invert__(self) -> "Word":
        return Word._from_reduced(kernel.inv(self._letters))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return (~self) ** (-n)
        result = _IDENTITY
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def abelianize(self) -> tuple[int, int]:
        w = self._letters
        return w.count(0) - w.count(1), w.count(2) - w.count(3)

    def __str__(self) -> str:
        if not self._letters:
            return "e"
        parts = []
        run_char, run_len = _CHARS[self._letters[0]], 1
        for c in self._letters[1:]:
            ch = _CHARS[c]
            if ch == run_char:
                run_len += 1
            else:
                parts.append(run_char if run_len == 1 else f"{run_char}^{run_len}")
                run_char, run_len = ch, 1
        parts.append(run_char if run_len == 1 else f"{run_char}^{run_len}")
        return "".join(parts)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


_IDENTITY = Word._from_reduced(b"")


def commutator(g: Word, h: Word) -> Word:
    """g h g^-1 h^-1."""
    return g * h * ~g * ~h


def conjugate(g: Word, h: Word) -> Word:
    """h g h^-1."""
    return h * g * ~h


def abelianize(g: Word) -> tuple[int, int]:
    """Exponent sums (of x, of y); the image in Z^2."""
    return g.abelianize()


def in_commutator_subgroup(g: Word) -> bool:
    """True iff both exponent sums vanish."""
    return g.abelianize() == (0, 0)


def square_root(w: Word) -> Optional[Word]:
    """The unique v with v^2 == w, if w is a square; otherwise None.

    >>> square_root(parse("yx^2Y"))
    Word('yxY')
    """
    root = kernel.square_root(w.codes)
    return None if root is None else Word._from_reduced(root)


def three_squares(g: Word, h: Word) -> tuple[Word, Word, Word]:
    """(g, g^-1 h, h^-1): the squares of these multiply to [g, h]."""
    return g, ~g * h, ~h


def parse(expr: str) -> Word:
    """Parse a word expression into a reduced Word.

    Grammar: a word is a sequence of terms; a term is an atom with an
    optional ^integer; an atom is one of x, y, X, Y, e, a parenthesised
    word, or a commutator [u,v] meaning u v u^-1 v^-1.  X and Y denote
    the inverses of x and y, juxtaposition is the product, whitespace is
    ignored, and both "e" and "" denote the identity.  An exponent is an
    optional "-" directly followed by decimal digits.

    One left-to-right pass with an explicit stack of open groups, reducing
    as it goes: the time is linear in the input plus the total length of
    the group values built, and nesting depth is not bounded by the
    recursion limit.

    >>> parse("[x,y]")
    Word('xyXY')
    >>> parse("[x^2,y^3]")
    Word('x^2y^3X^2Y^3')
    """
    buf = bytearray()  # reduced codes of the innermost open group
    stack = []  # enclosing groups: (opener, position, outer buf, left factor)
    for m in _TOKEN.finditer(expr):
        atom, sign, digits, other = m.groups()
        if atom is None:
            if other == "(" or other == "[":
                stack.append((other, m.start(4), buf, None))
                buf = bytearray()
            elif other == "," and stack and stack[-1][0] == "[":
                opener, pos, outer, left = stack[-1]
                if left is not None:
                    raise ParseError("unclosed '['", pos)
                stack[-1] = (opener, pos, outer, Word._from_reduced(bytes(buf)))
                buf = bytearray()
            else:
                raise ParseError(f"unexpected {other!r}", m.start(4))
            continue
        code = _CODE_OF.get(atom)
        if code is not None:
            n = 1 if sign is None else _exponent(sign, digits, m.start(2))
            if n < 0:
                code ^= 1
                n = -n
            if buf and buf[-1] == code ^ 1:
                _merge(buf, _LETTER[code] * n)
            else:
                buf += _LETTER[code] * n
            continue
        if atom == "e":
            if sign is not None:
                _exponent(sign, digits, m.start(2))
            continue
        # a closing bracket: it must match the innermost open group
        if not stack or stack[-1][0] != ("(" if atom == ")" else "["):
            raise ParseError(f"unexpected {atom!r}", m.start(1))
        _, pos, outer, left = stack.pop()
        if atom == ")":
            group = buf
        elif left is None:
            raise ParseError("expected ',' in commutator", pos)
        else:
            group = commutator(left, Word._from_reduced(bytes(buf))).codes
        n = 1 if sign is None else _exponent(sign, digits, m.start(2))
        if n != 1:
            group = (Word._from_reduced(bytes(group)) ** n).codes
        if outer or group is not buf:
            _merge(outer, group)
            buf = outer
    if stack:
        opener, pos, _, left = stack[-1]
        if opener == "(":
            raise ParseError("unclosed '('", pos)
        if left is None:
            raise ParseError("expected ',' in commutator", pos)
        raise ParseError("unclosed '['", pos)
    return Word._from_reduced(bytes(buf))


# One match per token.  A letter, e or closing bracket carries its optional
# exponent: "^", an optional "-" and decimal digits (``\d`` is exactly
# str.isdecimal, the digits int() accepts); the digits may be empty, which
# the parser reports.  Any other non-space character is a one-character
# token.  Each token absorbs the whitespace before it, so the matches cover
# the whole input except trailing whitespace.
_TOKEN = re.compile(r"\s*(?:([xXyYe)\]])(?:\s*\^\s*(-?)(\d*))?|(\S))")

_LETTER = tuple(bytes((c,)) for c in range(4))


def _exponent(sign: str, digits: str, start: int) -> int:
    if not digits:
        raise ParseError("expected an integer after '^'", start)
    if len(digits) < 19:  # below 10^18, so within MAX_EXPONENT
        value = int(digits)
    else:
        value = 0
        for ch in digits:
            value = value * 10 + int(ch)
            if value > MAX_EXPONENT:
                raise ParseError("exponent overflow", start)
    return -value if sign else value


def _merge(buf: bytearray, codes: bytes) -> None:
    """buf := reduce(buf + codes), for reduced buf and codes."""
    i = 0
    n = min(len(buf), len(codes))
    while i < n and buf[-1 - i] == codes[i] ^ 1:
        i += 1
    if i:
        del buf[-i:]
    buf += codes[i:]
