"""Word-core: parsing, reduction, group operations, square roots."""

import doctest
import re

import pytest
from hypothesis import given, settings, strategies as st

import twosquares.words
from twosquares import (
    ParseError,
    Word,
    abelianize,
    commutator,
    conjugate,
    in_commutator_subgroup,
    parse,
    square_root,
    three_squares,
)
from twosquares.oracle import enumerate_reduced

from conftest import random_reduced
from reference_parser import reference_parse


def naive_reduce(codes):
    """Cancel-until-fixpoint reference reduction (quadratic, obviously right)."""
    out = list(codes)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i] == out[i + 1] ^ 1:
                del out[i : i + 2]
                changed = True
                break
    return bytes(out)


class TestParse:
    def test_commutator_notation(self):
        assert parse("[x,y]") == Word("xyXY")

    def test_free_cancellation(self):
        assert parse("xX") == Word()

    def test_powers_inside_commutator(self):
        assert parse("[x^2,y^3]") == Word("xxyyyXXYYY")

    def test_identity_spellings(self):
        assert parse("") == Word()
        assert parse("e") == Word()
        assert parse(" e ") == Word()

    def test_whitespace_and_nesting(self):
        assert parse(" ( x y ) ^ 2 ") == Word("xyxy")
        assert parse("\tx\n^\u00a02") == Word("xx")  # any str.isspace character
        assert parse("[x,[x,y]]") == commutator(Word("x"), Word("xyXY"))

    def test_uppercase_inverses(self):
        assert parse("Xy") == Word("Xy")
        assert parse("x^-2") == Word("XX")

    def test_negative_and_zero_exponents(self):
        assert parse("(xy)^-1") == Word("YX")
        assert parse("x^0") == Word()
        assert parse("x ^ -2") == Word("XX")

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as info:
            parse("xy!z")
        assert info.value.position == 2

    def test_unclosed_bracket(self):
        with pytest.raises(ParseError):
            parse("[x,y")
        with pytest.raises(ParseError):
            parse("(xy")
        with pytest.raises(ParseError):
            parse("[xy]")

    def test_missing_exponent(self):
        with pytest.raises(ParseError):
            parse("x^")
        with pytest.raises(ParseError) as info:
            parse("x^- 2")  # the sign binds to the digits
        assert info.value.position == 2

    def test_exponent_digits_are_decimal(self):
        # "²" passes str.isdigit, but int() rejects it
        with pytest.raises(ParseError) as info:
            parse("x^²")
        assert str(info.value) == "expected an integer after '^' (position 2)"
        assert parse("x^٣") == Word("xxx")  # ARABIC-INDIC DIGIT THREE

    def test_nesting_depth_is_unbounded(self):
        depth = 10_000
        assert parse("(" * depth + "x" + ")" * depth) == Word("x")
        assert parse("(" * depth + "[x,y]" + ")" * depth) == Word("xyXY")
        with pytest.raises(ParseError) as info:
            parse("(" * depth)
        assert str(info.value) == f"unclosed '(' (position {depth - 1})"

    def test_exponent_overflow(self):
        with pytest.raises(ParseError) as info:
            parse(f"x^{2**63}")
        assert "overflow" in str(info.value)

    def test_roundtrip_through_str(self, rng):
        for _ in range(200):
            w = random_reduced(rng, rng.randrange(0, 15))
            assert parse(str(w)) == w


FUZZ_ALPHABET = "xXyYe()[],^-0123 9"


def parse_outcome(parser, expr):
    """The Word a parser returns, or the message and position of its ParseError."""
    try:
        return parser(expr)
    except ParseError as exc:
        return str(exc), exc.position


def small_exponents(expr):
    # Neither parser caps a word by its length, so "(x^9999)^9999" would
    # build 10^8 letters twice over; runs of four or more digits are left
    # out to keep memory small.
    return re.search(r"\d{4}", expr) is None


class TestParseAgainstReference:
    """The streaming parser against the recursive-descent reference.

    Both must return the same Word, or raise ParseError with the same
    message and position.
    """

    def test_seeded_random_strings(self, rng):
        compared = 0
        for _ in range(20_000):
            expr = "".join(rng.choice(FUZZ_ALPHABET) for _ in range(rng.randint(1, 13)))
            if small_exponents(expr):
                assert parse_outcome(parse, expr) == parse_outcome(reference_parse, expr), expr
                compared += 1
        assert compared > 19_000

    @settings(max_examples=500, deadline=None)
    @given(st.text(FUZZ_ALPHABET, min_size=1, max_size=13).filter(small_exponents))
    def test_hypothesis_strings(self, expr):
        assert parse_outcome(parse, expr) == parse_outcome(reference_parse, expr)


class TestGroupOps:
    def test_multiply_examples(self):
        assert Word("xy") * Word("YX") == Word()
        assert Word("x") * Word("y") == Word("xy")
        # hand reduction: x y x^-1 * x y = x y y
        assert Word("xyX") * Word("xy") == Word("xyy")

    def test_invert_examples(self):
        assert ~Word("xy") == Word("YX")
        assert ~Word() == Word()
        assert ~Word("xxY") == Word("yXX")

    def test_commutator_examples(self):
        assert commutator(Word("x"), Word("y")) == Word("xyXY")
        assert commutator(Word("x"), Word("x")) == Word()
        assert commutator(Word("xx"), Word("yyy")) == parse("x^2y^3X^2Y^3")

    def test_conjugate_examples(self):
        assert conjugate(Word("x"), Word()) == Word("x")
        assert conjugate(Word("y"), Word("x")) == Word("xyX")
        # hand reduction: y (x y x^-1 y^-1) y^-1
        assert conjugate(Word("xyXY"), Word("y")) == Word("yxyXYY")

    def test_power_examples(self):
        assert Word("x") ** 3 == Word("xxx")
        assert Word("xy") ** 0 == Word()
        assert Word("xyXY") ** 2 == Word("xyXYxyXY")
        assert Word("xy") ** -2 == Word("YXYX")

    def test_abelianize_examples(self):
        assert abelianize(parse("[x,y]")) == (0, 0)
        assert abelianize(parse("x^2Y")) == (2, -1)
        assert abelianize(parse("[x^3,y^2]")) == (0, 0)

    def test_in_commutator_subgroup(self):
        assert in_commutator_subgroup(parse("[x,y]^5"))
        assert not in_commutator_subgroup(parse("x^2"))
        assert in_commutator_subgroup(parse("(y[x,y]Y)[x,y]^-1"))

    def test_reduction_matches_naive_oracle(self, rng):
        for _ in range(500):
            codes = bytes(rng.randrange(4) for _ in range(rng.randrange(21)))
            assert Word(codes).codes == naive_reduce(codes)

    def test_product_matches_naive_oracle(self, rng):
        for _ in range(500):
            u = random_reduced(rng, rng.randrange(12))
            v = random_reduced(rng, rng.randrange(12))
            assert (u * v).codes == naive_reduce(u.codes + v.codes)

    def test_invert_involution_and_inverse_law(self, rng):
        for _ in range(300):
            u = random_reduced(rng, rng.randrange(15))
            assert ~~u == u
            assert u * ~u == Word()

    def test_abelianize_homomorphism(self, rng):
        for _ in range(300):
            u = random_reduced(rng, rng.randrange(12))
            v = random_reduced(rng, rng.randrange(12))
            au, av, auv = abelianize(u), abelianize(v), abelianize(u * v)
            assert auv == (au[0] + av[0], au[1] + av[1])


class TestSquareRoot:
    def test_examples(self):
        assert square_root(Word("xyxy")) == Word("xy")
        assert square_root(parse("yx^2Y")) == Word("yxY")  # (y x y^-1)^2
        assert square_root(parse("[x,y]")) is None

    def test_exhaustive_small(self):
        for v in enumerate_reduced(6):
            assert square_root(v * v) == v

    def test_random_longer(self, rng):
        for _ in range(500):
            v = random_reduced(rng, rng.randrange(7, 11))
            assert square_root(v * v) == v

    def test_root_squares_back(self, rng):
        for _ in range(500):
            w = random_reduced(rng, rng.randrange(15))
            v = square_root(w)
            if v is not None:
                assert v * v == w

    def test_non_squares_by_pairwise_enumeration(self):
        # |v^2| >= |v|, so every square of length <= 4 has its root here
        words4 = list(enumerate_reduced(4))
        squares = {v * v for v in words4}
        for w in words4:
            if w in squares:
                assert square_root(w) is not None
            else:
                assert square_root(w) is None


class TestThreeSquares:
    def test_generator_case(self):
        a, b, c = three_squares(Word("x"), Word("y"))
        assert (a, b, c) == (Word("x"), Word("Xy"), Word("Y"))
        assert a * a * b * b * c * c == parse("[x,y]")

    def test_equal_arguments_collapse(self):
        a, b, c = three_squares(Word("x"), Word("x"))
        assert a * a * b * b * c * c == Word()

    def test_power_case(self):
        g, h = parse("x^2"), parse("y^3")
        a, b, c = three_squares(g, h)
        assert a * a * b * b * c * c == commutator(g, h)

    def test_random_identity(self, rng):
        for _ in range(300):
            g = random_reduced(rng, rng.randrange(9))
            h = random_reduced(rng, rng.randrange(9))
            a, b, c = three_squares(g, h)
            assert a * a * b * b * c * c == commutator(g, h)


class TestWordBasics:
    def test_equality_is_canonical(self):
        assert Word("xyX") * Word("xy") == Word("xyy")
        assert hash(Word("xX")) == hash(Word())

    def test_str_forms(self):
        assert str(Word()) == "e"
        assert str(Word("xxxY")) == "x^3Y"
        assert str(parse("[x,y]")) == "xyXY"

    def test_letters_view(self):
        gens = parse("xY").letters
        assert [(g.letter, g.sign) for g in gens] == [("x", 1), ("y", -1)]
        assert gens[0].inverse().code == 1

    def test_invalid_input(self):
        with pytest.raises(ValueError):
            Word("xz")
        with pytest.raises(ValueError):
            Word([7])

    def test_doctests(self):
        results = doctest.testmod(twosquares.words)
        assert results.failed == 0
