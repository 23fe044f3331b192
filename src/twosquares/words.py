"""Elements of the rank-2 free group on x and y, as canonically reduced words.

Words are reduced eagerly at construction, so ``==`` on Word is group
equality.  The letter alphabet is x, X, y, Y with X = x^-1 and Y = y^-1;
internally a word is a bytes string of letter codes (see kernel).
"""

from __future__ import annotations

import re
from typing import Iterable, Optional, Union

from . import kernel
from ._kernel_py import _common_suffix, _peel, _seam

_CHARS = "xXyY"
_CODE_OF = {"x": 0, "X": 1, "y": 2, "Y": 3}

# Exponents in word expressions are capped at machine-integer range;
# anything larger is a parse error, never a silent wrap.
MAX_EXPONENT = 2**63 - 1
# Parsed words are capped by length: a letter run or a group power
# longer than this is refused before it is built, and no group's value
# may grow past it.  The letters held for the open groups (their
# enclosing values and commutator left factors) count against the same
# cap, together with the innermost value, whenever a group opens, reaches
# its ',' or closes.
MAX_LETTERS = 2**20


class ParseError(ValueError):
    """Malformed word expression; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class Word:
    """A freely reduced word in x, y and their inverses.

    Accepts a plain letter string over xXyY, a bytes string of letter
    codes, or an iterable of codes; reduction happens here, so every Word
    is canonical.  Immutable by convention: no method mutates, all
    operations return fresh words.  The text str() prints and the
    exponent sums abelianize counts are built on first use and kept.

    >>> Word("xX")
    Word('e')
    >>> Word("xy") * Word("Yx")
    Word('x^2')
    """

    __slots__ = ("_letters", "_text", "_sums")

    def __init__(self, letters: Union[str, Iterable[int]] = b""):
        if isinstance(letters, str):
            try:
                codes = bytes(_CODE_OF[ch] for ch in letters)
            except KeyError as exc:
                raise ValueError(f"not a word letter: {exc.args[0]!r}") from None
        elif isinstance(letters, int):  # bytes(n) would be n zero codes
            raise TypeError("Word() takes letters, not an int")
        else:
            codes = bytes(letters)
        if any(c > 3 for c in codes):
            raise ValueError("letter codes must be in 0..3")
        self._letters = kernel.reduce_word(codes)
        self._text = self._sums = None

    @classmethod
    def _from_reduced(cls, data: bytes, text: Optional[str] = None) -> "Word":
        """The Word of reduced codes; text, if given, must be what str() prints."""
        w = cls.__new__(cls)
        w._letters = data
        w._text, w._sums = text, None
        return w

    @property
    def codes(self) -> bytes:
        return self._letters

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
        """w^n, laid down as s c^n s^-1 from the peel w = s c s^-1.

        >>> Word("xyX") ** 3
        Word('xy^3X')
        """
        return Word._from_reduced(_power(self._letters, n, _peel(self._letters)))

    def __str__(self) -> str:
        if self._text is not None:
            return self._text
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
        self._text = "".join(parts)
        return self._text

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


def commutator(g: Word, h: Word) -> Word:
    """g h g^-1 h^-1."""
    return g * h * ~g * ~h


def conjugate(g: Word, h: Word) -> Word:
    """h g h^-1."""
    return h * g * ~h


def abelianize(g: Word) -> tuple[int, int]:
    """Exponent sums (of x, of y); the image in Z^2.  Counted once per Word."""
    if g._sums is None:
        w = g.codes
        g._sums = w.count(0) - w.count(1), w.count(2) - w.count(3)
    return g._sums


def in_commutator_subgroup(g: Word) -> bool:
    """True iff both exponent sums vanish."""
    return abelianize(g) == (0, 0)


def square_root(w: Word) -> Optional[Word]:
    """The unique v with v^2 == w, if w is a square; otherwise None.

    >>> square_root(parse("yx^2Y"))
    Word('yxY')
    """
    root = kernel.square_root(w.codes)
    return None if root is None else Word._from_reduced(root)


def parse(expr: str) -> Word:
    """Parse a word expression into a reduced Word.

    Grammar: a word is a sequence of terms; a term is an atom with an
    optional ^integer; an atom is one of x, y, X, Y, e, a parenthesised
    word, or a commutator [u,v] meaning u v u^-1 v^-1.  X and Y denote
    the inverses of x and y, juxtaposition is the product, whitespace is
    ignored, and both "e" and "" denote the identity.  An exponent is an
    optional "-" directly followed by decimal digits.

    A flat expression, the form ``str(Word)`` prints (letters, each with
    an optional exponent of ASCII digits without a leading 0, and no
    letter next to its inverse), is read in one regex split; if it is
    already canonical (no exponent 1, and no letter next to itself), it
    is also the word's text.  Any other
    expression, and a flat one past MAX_LETTERS, takes one left-to-right
    pass with an explicit stack of open groups, reducing as it goes: the
    time is linear in the input plus the total length of the group values
    built, and nesting depth is not bounded by the recursion limit.  Both
    reads give the same Word; only the pass raises ParseError.

    >>> parse("[x,y]")
    Word('xyXY')
    >>> parse("[x^2,y^3]")
    Word('x^2y^3X^2Y^3')
    """
    word = _read_flat(expr)
    if word is not None:
        return word
    buf = bytearray()  # reduced codes of the innermost open group
    stack = []  # enclosing groups: (opener, position, outer buf, left factor)
    held = 0  # letters in the outer bufs and left factors on the stack
    for m in _TOKEN.finditer(expr):
        atom, sign, digits, other = m.groups()
        if atom is None:
            if held + len(buf) > MAX_LETTERS:
                raise ParseError(_TOO_LONG, m.start(4))
            if other == "(" or other == "[":
                stack.append((other, m.start(4), buf, None))
                held += len(buf)
                buf = bytearray()
            elif other == "," and stack and stack[-1][0] == "[":
                opener, pos, outer, left = stack[-1]
                if left is not None:
                    raise ParseError("unclosed '['", pos)
                stack[-1] = (opener, pos, outer, bytes(buf))
                held += len(buf)
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
                if n > MAX_LETTERS:
                    raise ParseError(_TOO_LONG, m.start(1))
                _merge(buf, _LETTER[code] * n)
                if len(buf) > MAX_LETTERS:
                    raise ParseError(_TOO_LONG, m.start(1))
            elif len(buf) + n > MAX_LETTERS:
                raise ParseError(_TOO_LONG, m.start(1))
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
        if held + len(buf) > MAX_LETTERS:
            raise ParseError(_TOO_LONG, m.start(1))
        _, pos, outer, left = stack.pop()
        held -= len(outer) + (0 if left is None else len(left))
        if atom == "]" and left is None:
            raise ParseError("expected ',' in commutator", pos)
        n = 1 if sign is None else _exponent(sign, digits, m.start(2))
        if atom == ")":
            group = buf
        elif n == 0:  # [u,v]^0 is e, whatever [u,v] is
            group = b""
        else:  # [u,v] = (uv)(vu)^-1, counted before it is built
            uv = bytearray(left)
            _merge(uv, buf)
            _merge(buf, left)
            # the seam of (uv)(vu)^-1 cancels their longest common suffix
            k = _common_suffix(uv, 0, len(uv), buf, len(buf), 0)
            if len(uv) + len(buf) - 2 * k > MAX_LETTERS:
                raise ParseError(_TOO_LONG, m.start(1))
            del uv[len(uv) - k :], buf[len(buf) - k :]
            uv += kernel.inv(buf)
            group = uv
        if n != 1:  # count w^n = s c^n s^-1 before it is built
            p = _peel(group)
            if 2 * p + abs(n) * (len(group) - 2 * p) > MAX_LETTERS:
                raise ParseError(_TOO_LONG, m.start(1))
            group = _power(group, n, p)
        if outer or group is not buf:
            _merge(outer, group)
            buf = outer
            if len(buf) > MAX_LETTERS:
                raise ParseError(_TOO_LONG, m.start(1))
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
_TOO_LONG = f"word longer than {MAX_LETTERS} letters"

# The flat read.  An exponent there is ASCII digits without a leading 0,
# so it is at least 1 and its power is a run of one letter: the word is
# reduced when its skeleton (the expression without its exponents) is
# letters only, with no letter next to its inverse.  It is also the text
# str() prints when, besides, no exponent is 1 and no letter is next to
# itself.  Both checks start from one scan for two letters of one axis
# side by side, which str() never prints.  One split cuts the expression
# into [text, letter, digits, text, letter, digits, ..., text].
# An exponent is read to at most 7 digits, so int() stays cheap: a longer
# one is past MAX_LETTERS anyway, and its 8th digit stays in the skeleton,
# which sends the expression to the token loop.
_FLAT_POWER = re.compile(r"([xXyY])\^([1-9][0-9]{0,6})")
_FLAT_SKELETON = re.compile(r"[xXyY]+")
_FLAT_CODES = bytes.maketrans(b"xXyY", bytes(range(4)))
_FLAT_AXES = bytes.maketrans(b"xXyY", b"xxyy")


def _read_flat(expr: str) -> Optional[Word]:
    """The Word of a flat expression, or None for any other.

    None also for a flat word longer than MAX_LETTERS, which is counted
    before it is built; the token loop then refuses it with its position.
    A canonical expression, one str() would print, becomes the word's text.
    """
    parts = _FLAT_POWER.split(expr)
    digits = parts[2::3]
    del parts[2::3]
    skeleton = "".join(parts)
    if not _FLAT_SKELETON.fullmatch(skeleton):
        return None
    axes = skeleton.encode().translate(_FLAT_AXES)
    same_axis = b"xx" in axes or b"yy" in axes
    if same_axis and (
        "xX" in skeleton or "Xx" in skeleton or "yY" in skeleton or "Yy" in skeleton
    ):
        return None
    powers = list(map(int, digits))
    if len(skeleton) + sum(powers) - len(powers) > MAX_LETTERS:
        return None
    parts[1::2] = map(str.__mul__, parts[1::2], powers)
    codes = "".join(parts).encode().translate(_FLAT_CODES)
    return Word._from_reduced(codes, None if same_axis or 1 in powers else expr)


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


def _power(codes: bytes, n: int, p: int) -> bytes:
    """w^n = s c^n s^-1 for reduced w with peel p; c is cyclically reduced, so none cancels."""
    if n == 0:
        return b""
    core = codes[p : len(codes) - p]
    if n < 0:
        core, n = kernel.inv(core), -n
    return codes[:p] + core * n + codes[len(codes) - p :]


def _merge(buf: bytearray, codes: bytes) -> None:
    """buf := reduce(buf + codes), for reduced buf and codes."""
    k = _seam(buf, codes)
    del buf[len(buf) - k :]
    buf += codes[k:]
