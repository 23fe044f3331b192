"""Reference parser for the differential tests: the original recursive descent.

It follows the grammar in ``twosquares.words.parse`` one grammar rule per
method and multiplies each term into the accumulated word, so it is
quadratic in the input and recurses three frames per nesting level.  It
stays here, test-only, as the oracle the streaming parser is compared
against.  A power is n copies of its atom's letters, freely reduced by
the Word constructor, so the oracle shares no power builder with
``parse``.  Two known defects are kept on purpose, because the streaming
parser fixes them: a non-decimal digit such as "x^²" raises a bare
ValueError from int(), and nesting deeper than the recursion limit raises
RecursionError.
"""

from twosquares.words import _CODE_OF, MAX_EXPONENT, ParseError, Word, commutator


def reference_parse(expr: str) -> Word:
    parser = _Parser(expr)
    word = parser.parse_word(stoppers="")
    parser.skip_ws()
    if parser.pos != len(expr):
        raise ParseError(f"unexpected {expr[parser.pos]!r}", parser.pos)
    return word


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse_word(self, stoppers: str) -> Word:
        result = Word()
        while True:
            ch = self.peek()
            if ch == "" or ch in stoppers:
                return result
            result = result * self.parse_term()

    def parse_term(self) -> Word:
        atom = self.parse_atom()
        if self.peek() == "^":
            self.pos += 1
            n = self.parse_int()
            return Word((atom if n >= 0 else ~atom).codes * abs(n))
        return atom

    def parse_atom(self) -> Word:
        ch = self.peek()
        pos = self.pos
        if ch in _CODE_OF:
            self.pos += 1
            return Word._from_reduced(bytes([_CODE_OF[ch]]))
        if ch == "e":
            self.pos += 1
            return Word()
        if ch == "(":
            self.pos += 1
            inner = self.parse_word(stoppers=")")
            if self.peek() != ")":
                raise ParseError("unclosed '('", pos)
            self.pos += 1
            return inner
        if ch == "[":
            self.pos += 1
            left = self.parse_word(stoppers=",]")
            if self.peek() != ",":
                raise ParseError("expected ',' in commutator", pos)
            self.pos += 1
            right = self.parse_word(stoppers=",]")
            if self.peek() != "]":
                raise ParseError("unclosed '['", pos)
            self.pos += 1
            return commutator(left, right)
        if ch == "":
            raise ParseError("unexpected end of expression", self.pos)
        raise ParseError(f"unexpected {ch!r}", self.pos)

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        sign = 1
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            sign = -1
            self.pos += 1
        digits_start = self.pos
        value = 0
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            value = value * 10 + int(self.text[self.pos])
            if value > MAX_EXPONENT:
                raise ParseError("exponent overflow", start)
            self.pos += 1
        if self.pos == digits_start:
            raise ParseError("expected an integer after '^'", start)
        return sign * value
