"""Word-core: parsing, reduction, group operations, square roots."""

import doctest
import re
from itertools import groupby
import timeit
import tracemalloc

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
    kernel,
    parse,
    square_root,
)
from twosquares.oracle import enumerate_reduced
from twosquares.words import MAX_LETTERS

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


def parse_error_and_peak(expr):
    """The ParseError that parse(expr) raises, and the tracemalloc peak on the way."""
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as info:
            parse(expr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return info.value, peak


class TestLengthCap:
    """Words longer than MAX_LETTERS are refused before they are built.

    The inputs sit just above the cap, so a parser without the guard
    would allocate about a megabyte, not gigabytes.
    """

    @pytest.mark.parametrize("expr, position", [
        ("x^1048577", 0),
        ("(xy)^524289", 3),
        ("[x^1048577,y]", 1),
        ("x^4611686018427387904", 0),
        # a run that cancels the letter before it, longer than the cap
        ("x^2X^1048577", 3),
        ("xX^4611686018427387904", 1),
    ])
    def test_refused_before_allocation(self, expr, position):
        error, peak = parse_error_and_peak(expr)
        assert str(error) == f"word longer than 1048576 letters (position {position})"
        assert peak < 2**20, f"tracemalloc peak {peak / 2**20:.2f} MB"

    def test_cap_itself_parses(self):
        assert MAX_LETTERS == 2**20
        assert len(parse("x^1048576")) == MAX_LETTERS
        assert len(parse("X^-1048576")) == MAX_LETTERS

    def test_group_power_counts_peeled_pairs(self):
        # xyX = x y x^-1, so (xyX)^n = x y^n x^-1 has n + 2 letters
        assert len(parse("(xyX)^1048574")) == MAX_LETTERS
        with pytest.raises(ParseError, match="word longer"):
            parse("(xyX)^1048575")
        # and a power that cancels back under the cap is fine
        assert parse("(x^1048576)^-1x^1048576") == Word()

    def test_merged_group_over_cap(self):
        with pytest.raises(ParseError) as info:
            parse("x^1048576 x")
        assert info.value.position == 10
        # refused at ')' by the count of letters held for open groups
        with pytest.raises(ParseError) as info:
            parse("x^1048576(y)")
        assert info.value.position == 11
        # a run that cancels one letter and still grows the value
        with pytest.raises(ParseError) as info:
            parse("y^1048575Xx^3")
        assert info.value.position == 10
        # a group under the cap that its merge into the outer value
        # takes past it
        for expr, position in [("x^1000000(y)^100000", 11),
                               ("x^900000[y^100000,x^40000]", 25)]:
            with pytest.raises(ParseError) as info:
                parse(expr)
            assert info.value.position == position

    @pytest.mark.parametrize("expr, position", [
        ("x^1048576(" * 20, 19),
        ("[x^1048576,y^1048576]", 20),
    ])
    def test_open_groups_count_against_the_cap(self, expr, position):
        # the values held for open groups add up: without the total cap
        # these reach tracemalloc peaks of 21 MB and 14 MB
        error, peak = parse_error_and_peak(expr)
        assert str(error) == f"word longer than 1048576 letters (position {position})"
        assert peak < 4 * 2**20, f"tracemalloc peak {peak / 2**20:.2f} MB"

    @pytest.mark.parametrize("expr", ["[x^524288,y^524288]", "[x^349525,y^349525]"])
    def test_commutator_counted_before_it_is_built(self, expr):
        # [u,v] is counted from the common suffix of uv and vu, before
        # uv (vu)^-1 is built; laying its four factors down as slices
        # peaked at 3.0 MB and 2.0 MB on these (Python 3.11)
        error, peak = parse_error_and_peak(expr)
        assert str(error) == "word longer than 1048576 letters (position 18)"
        assert peak < 2.75 * 2**20, f"tracemalloc peak {peak / 2**20:.2f} MB"

    def test_commutator_cancelling_under_the_cap_parses(self):
        # the factors add up past half the cap, the reduced value does not
        expr = "[y^200000xY^200000,y^200000xyY^200000]"
        tracemalloc.start()
        try:
            w = parse(expr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert w == parse("y^200000[x,xy]Y^200000") and len(w) == 400_006
        # laying the four factors down as slices peaked at 2.7 MB (Python 3.11)
        assert peak < 2.5 * 2**20, f"tracemalloc peak {peak / 2**20:.2f} MB"
        assert len(parse("[x^262144y,Yx^262143]")) == MAX_LETTERS
        with pytest.raises(ParseError) as info:
            parse("[x^262144y,Yx^262144]")
        assert info.value.position == 20
        assert parse("[x^524288,y^524288]^0") == Word()
        # uv and vu share the suffix x^524288, and both copies of it cancel
        w = parse("[yx^524288,x^524287]")
        assert w == parse("yx^524287YX^524287") and len(w) == MAX_LETTERS
        with pytest.raises(ParseError) as info:
            parse("[yx^524287,x^524288]")
        assert info.value.position == 19

    def test_parsed_commutator_matches_commutator(self, rng):
        for i in range(500):
            u = random_reduced(rng, rng.randrange(12))
            v = random_reduced(rng, rng.randrange(12))
            if i % 2:
                # v starts with the inverse of a tail of u, and both share
                # a conjugator, so every seam of [u,v] cancels
                s = random_reduced(rng, rng.randrange(8))
                tail = Word(u.codes[len(u) - rng.randrange(len(u) + 1):])
                u, v = s * u * ~s, s * ~tail * v * ~s
            want = commutator(u, v)
            assert parse(f"[{u},{v}]") == want, (u, v)
            for e in (-3, -1, 2, 5):
                assert parse(f"[{u},{v}]^{e}") == want**e, (u, v, e)
            # [u,v] v = u v u^-1 cancels at the seam of [[u,v],v]
            assert parse(f"[[{u},{v}],{v}]") == commutator(want, v), (u, v)

    def test_seam_inverts_one_slice(self):
        # _merge inverts the overlap from one reversed slice; slicing,
        # translating and reversing it peaked at 1,575,081 B and
        # 2,623,562 B on these (Python 3.11)
        error, peak = parse_error_and_peak("[x^262144y,Yx^262144]")
        assert error.position == 20
        assert peak < 1_400_000, f"tracemalloc peak {peak} B"
        tracemalloc.start()
        try:
            w = parse("(x^524288)(X^524288)")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert w == Word()
        assert peak < 2_300_000, f"tracemalloc peak {peak} B"

    def test_total_cap_refuses_values_that_would_cancel(self):
        # the inner group cancels its enclosing value, but both are held
        # at once when it closes
        expr = "x^1048576(X^1048576)"
        assert reference_parse(expr) == Word()
        with pytest.raises(ParseError) as info:
            parse(expr)
        assert info.value.position == 19
        assert parse("x^524288(X^524288)") == Word()

    def test_power_length_matches_power(self, rng):
        # _power and ** against repeated *, on words w = u c u^-1 whose
        # peel u is often longer than the core c
        for i in range(500):
            c = random_reduced(rng, rng.randrange(1, 10))
            u = random_reduced(rng, rng.randrange(30 if i % 2 else 6))
            w = u * c * ~u
            n = rng.randrange(-5, 6)
            want = Word()
            for _ in range(abs(n)):
                want = want * (w if n > 0 else ~w)
            got = twosquares.words._power(w.codes, n, twosquares.words._peel(w.codes))
            assert len(got) == len(want) and got == want.codes, (w, n)
            assert w**n == want, (w, n)


class TestSeams:
    """Where two reduced words meet, the cancellation is found by bisection."""

    @pytest.mark.parametrize("expr", ["(x^524288)(X^524288)", "(yx^524287)(X^524287Y)"])
    def test_long_seam_cancels_fast(self, expr):
        # a letter-by-letter seam took 66 ms and 56 ms on these (2-vCPU host)
        assert parse(expr) == Word()
        elapsed = min(timeit.repeat(lambda: parse(expr), number=1, repeat=3))
        assert elapsed < 0.020, f"{elapsed * 1000:.1f} ms"

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_group_seam_matches_product(self, data):
        letters = st.text("xXyY", max_size=12)
        u = Word(data.draw(letters))
        # v starts with the inverse of a tail of u
        tail = data.draw(st.integers(0, len(u)))
        v = ~Word(u.codes[len(u) - tail:]) * Word(data.draw(letters))
        assert parse(f"({u})({v})") == u * v

    def test_long_product_cancels_fast(self):
        # a letter-by-letter seam took 92 ms on this (2-vCPU host); Word
        # products are kernel.mul, which bisects
        u, v = parse("x^524288"), parse("X^524288")
        assert u * v == Word()
        assert kernel.mul(u.codes, v.codes) == b""
        for product in (lambda: u * v, lambda: kernel.mul(u.codes, v.codes)):
            elapsed = min(timeit.repeat(product, number=1, repeat=3))
            assert elapsed < 0.020, f"{elapsed * 1000:.1f} ms"

    def test_long_square_root_peels_fast(self, rng):
        # w = s c c s^-1 with |s| = 500,000: a letter-by-letter peel took
        # 82 ms on this (2-vCPU host); square_root peels by bisection
        s = random_reduced(rng, 499_999)
        s = s * Word("Y" if s.codes[-1] == 3 else "y")  # ends in y or Y
        c, d = Word("xyxYxyXYXyx"), Word("xYXyxyxYxyx")  # begin and end with x
        w = s * c * c * ~s
        assert len(s) == 500_000 and len(w) == 1_000_022 <= MAX_LETTERS
        assert square_root(w) == s * c * ~s
        # the same halves without s: the first letter is not the inverse of the last
        assert square_root(c * c) == c
        # cores of two unequal halves are not squares, peeled or not
        assert square_root(s * c * d * ~s) is None
        assert square_root(c * d) is None
        elapsed = min(timeit.repeat(lambda: kernel.square_root(w.codes), number=1, repeat=3))
        assert elapsed < 0.020, f"{elapsed * 1000:.1f} ms"


FUZZ_ALPHABET = "xXyYe()[],^-0123 9"
FLAT_FUZZ_ALPHABET = "xXyY^0123456789"


def parse_outcome(parser, expr):
    """The Word a parser returns, or the message and position of its ParseError."""
    try:
        return parser(expr)
    except ParseError as exc:
        return str(exc), exc.position


def assert_same_outcome(expr):
    """Both parsers agree, except that only the streaming one caps the length."""
    got, want = parse_outcome(parse, expr), parse_outcome(reference_parse, expr)
    if isinstance(want, Word) and len(want) > MAX_LETTERS:
        assert isinstance(got, tuple) and got[0].startswith("word longer than"), expr
    else:
        assert got == want, expr


def small_exponents(expr):
    # The reference parser does not cap a word by its length, so
    # "(x^9999)^9999" would build 10^8 letters there; runs of four or
    # more digits are left out to keep memory small.
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
                assert_same_outcome(expr)
                compared += 1
        assert compared > 19_000
        # letters, carets and digits only: the inputs the flat read
        # accepts, and those it declines by one character
        compared = flat = 0
        for _ in range(20_000):
            expr = "".join(rng.choice(FLAT_FUZZ_ALPHABET) for _ in range(rng.randint(1, 20)))
            if small_exponents(expr):
                assert_same_outcome(expr)
                compared += 1
                flat += twosquares.words._read_flat(expr) is not None
        assert compared > 9_000 and flat > 300

    @settings(max_examples=500, deadline=None)
    @given(st.text(FUZZ_ALPHABET, min_size=1, max_size=13).filter(small_exponents))
    def test_hypothesis_strings(self, expr):
        assert_same_outcome(expr)

    def test_over_cap_words_refused(self):
        # 13 characters within the fuzz alphabet and digit filter, yet
        # about 2 million letters once powered
        expr = "[x^999,y]^999"
        assert small_exponents(expr)
        assert len(reference_parse(expr)) > MAX_LETTERS
        assert_same_outcome(expr)


class TestFlatRead:
    """Run-length expressions, the form str(Word) prints, are read in one split."""

    def test_run_length_forms_parse_to_their_letters(self, rng):
        for _ in range(40):
            w = random_reduced(rng, rng.randint(200, 5000))
            letters = "".join("xXyY"[c] for c in w.codes)
            assert twosquares.words._read_flat(str(w)).codes == w.codes
            assert parse(str(w)) == Word(letters)

    @pytest.mark.parametrize("expr", [
        "x^0y", "yx^0Y", "x^01", "x^٣", "x ^2", "x^-2y", "x^2^3", "xX",
        "x^3X^2y", "ex", "x^1048576", "x^1048576y", "x^1048577", "",
    ])
    def test_near_flat_matches_reference(self, expr):
        assert_same_outcome(expr)

    @pytest.mark.parametrize("expr, position", [
        ("x^1048576y", 9),
        ("x^1048577", 0),
        ("x^1234567890123456789", 0),  # too long for the reference parser to build
        pytest.param("xy" * 524289, 1048576, id="(xy)*524289 written out"),
    ])
    def test_past_the_cap_refused_by_the_token_loop(self, expr, position):
        assert twosquares.words._read_flat(expr) is None
        with pytest.raises(ParseError) as info:
            parse(expr)
        assert str(info.value) == f"word longer than 1048576 letters (position {position})"

    def test_peak_memory(self, rng):
        # the split's pieces peaked at 1.2 MB (Python 3.11); a run token
        # inside the token loop's regex held 7.4 MB of match state
        w = random_reduced(rng, 40_000)
        expr = str(w)
        tracemalloc.start()
        try:
            got = parse(expr)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == w
        assert peak < 2 * 2**20, f"tracemalloc peak {peak / 2**20:.2f} MB"


def text_of_letters(codes):
    """The run-length text of reduced codes, by itertools.groupby."""
    runs = [(ch, len(list(group))) for ch, group in groupby("xXyY"[c] for c in codes)]
    return "".join(ch if n == 1 else f"{ch}^{n}" for ch, n in runs) or "e"


flat_expressions = st.lists(
    st.tuples(st.sampled_from("xXyY"), st.one_of(st.none(), st.integers(1, 30))), max_size=12
).map(lambda runs: "".join(ch if n is None else f"{ch}^{n}" for ch, n in runs))


class TestWordText:
    """str(Word) is the run-length text of its letters, built once."""

    @settings(max_examples=500, deadline=None)
    @given(flat_expressions)
    def test_parsed_flat_text(self, expr):
        # exponent 1, letters next to themselves and to their inverses included
        assert str(parse(expr)) == text_of_letters(reference_parse(expr).codes)

    @pytest.mark.parametrize("expr, text", [
        ("x^1y", "xy"), ("xxy", "x^2y"), ("x^2x^3", "x^5"), ("yx^1", "yx"),
        ("x^2xyX^2Y^2xy", "x^3yX^2Y^2xy"), ("x^3Xy", "x^2y"), ("x^10", "x^10"),
    ])
    def test_non_canonical_flat_inputs(self, expr, text):
        w = parse(expr)
        assert str(w) == text
        assert repr(w) == f"Word({text!r})"

    @pytest.mark.parametrize("expr", ["x", "x^10", "x^3yX^2Y^2xy", "XyxY", "y^1048576"])
    def test_canonical_expression_is_the_text(self, expr):
        assert str(parse(expr)) is expr

    def test_text_built_once(self, rng):
        w = random_reduced(rng, 50)
        assert str(w) is str(w)

    def test_built_words(self, rng):
        assert str(parse("x^2") * parse("x^3")) == "x^5"
        assert str(~parse("x^2y")) == "YX^2"
        assert str(parse("xy") ** 2) == "xyxy"
        for _ in range(300):
            u = random_reduced(rng, rng.randrange(15))
            v = random_reduced(rng, rng.randrange(15))
            letters = "".join("xXyY"[c] for c in u.codes)
            for w in (u * v, ~u, u ** rng.randint(-3, 3), Word(letters), Word(u.codes),
                      parse(str(u)) * v, ~parse(str(u))):
                assert str(w) == text_of_letters(w.codes)


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
        for i in range(1000):
            u = random_reduced(rng, rng.randrange(30))
            v = random_reduced(rng, rng.randrange(30))
            if i % 2:  # v starts with the inverse of a tail of u, and Word() reduces the rest
                v = Word(kernel.inv(u.codes[len(u) - rng.randrange(len(u) + 1):]) + v.codes)
            want = naive_reduce(u.codes + v.codes)
            assert (u * v).codes == want == kernel.mul(u.codes, v.codes), (u, v)

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


class TestWordBasics:
    def test_equality_is_canonical(self):
        assert Word("xyX") * Word("xy") == Word("xyy")
        assert hash(Word("xX")) == hash(Word())

    def test_str_forms(self):
        assert str(Word()) == "e"
        assert str(Word("xxxY")) == "x^3Y"
        assert str(parse("[x,y]")) == "xyXY"

    def test_invalid_input(self):
        with pytest.raises(ValueError):
            Word("xz")
        with pytest.raises(ValueError):
            Word([7])
        with pytest.raises(TypeError):
            Word(5)

    def test_doctests(self):
        results = doctest.testmod(twosquares.words)
        assert results.failed == 0
