"""Grid lifts: chain examples, endpoint/cycle laws, deck and module actions."""

import pytest

import twosquares.cover
from twosquares import (
    ChainPair,
    Laurent2,
    NotALoopError,
    Word,
    abelianize,
    analyze,
    commutator,
    conjugate,
    homology_image,
    lift_chain,
    lift_trace,
    parse,
)

from conftest import random_loop, random_reduced
from reference_lift import reference_lift

ONE = Laurent2.one()
X = Laurent2.x()
Y = Laurent2.y()


def geom_x(m):
    """1 + x + ... + x^(m-1)."""
    return Laurent2({(i, 0): 1 for i in range(m)})


def geom_y(n):
    return Laurent2({(0, j): 1 for j in range(n)})


class TestLiftChain:
    def test_commutator_chain(self):
        c = lift_chain(parse("[x,y]"))
        assert c.P == ONE - Y
        assert c.Q == X - ONE

    def test_squared_generator_chain(self):
        c = lift_chain(parse("[x^2,y]"))
        assert c.P == (ONE + X) * (ONE - Y)
        assert c.Q == X * X - ONE

    def test_general_commutator_formula(self):
        # chain of [x^m, y^n]: (1+...+x^(m-1))(1-y^n) X + (1+...+y^(n-1))(x^m-1) Y
        for m in range(1, 5):
            for n in range(1, 5):
                c = lift_chain(commutator(Word("x") ** m, Word("y") ** n))
                yn = Laurent2({(0, n): 1})
                xm = Laurent2({(m, 0): 1})
                assert c.P == geom_x(m) * (ONE - yn)
                assert c.Q == geom_y(n) * (xm - ONE)

    def test_empty_word(self):
        c = lift_chain(Word())
        assert not c.P and not c.Q

    def test_open_path_allowed(self):
        c = lift_chain(Word("xY"))
        assert c.P == ONE
        assert c.Q == -Laurent2({(1, -1): 1})


class TestLiftAgainstReference:
    """lift_chain's int-keyed walk against the tuple-keyed reference walk."""

    @staticmethod
    def seeded_words(rng):
        for _ in range(40):
            yield random_reduced(rng, rng.randint(0, 5000))
        for _ in range(10):  # loops of a few thousand letters
            yield commutator(random_reduced(rng, rng.randint(0, 1500)),
                             random_reduced(rng, rng.randint(0, 1500)))
        for _ in range(300):
            yield random_reduced(rng, rng.randint(0, 20))
        # the paths that reach the edge of the key range: an edge of w has
        # |i|, |j| < |w|
        for n in (1, 2, 7, 5000):
            yield from (Word("x") ** n, Word("X") ** n, Word("y") ** n, Word("Y") ** n)
            yield from (Word("y") ** n * Word("x"), Word("Y") ** n * Word("X"))
            yield commutator(Word("x") ** n, Word("y") ** n)
            yield commutator(Word("Y") ** n, Word("X") ** n)

    def test_matches_reference(self, rng):
        loops = open_paths = 0
        for w in self.seeded_words(rng):
            assert lift_chain(w) == reference_lift(w), str(w)
            if abelianize(w) == (0, 0):
                loops += 1
            else:
                open_paths += 1
        assert loops >= 20 and open_paths >= 200

    def test_terms_in_sorted_order(self, rng):
        for w in self.seeded_words(rng):
            c = lift_chain(w)
            assert list(c.P.items()) == sorted(c.P.items())
            assert list(c.Q.items()) == sorted(c.Q.items())

    @staticmethod
    def conjugated_loops(rng):
        """h c h^-1 for loops c and |h| from 0 to 5000; the lift walks
        only the cyclic core of these."""
        cores = [commutator(random_reduced(rng, rng.randint(1, 300)),
                            random_reduced(rng, rng.randint(1, 300))) for _ in range(10)]
        cores += [random_loop(rng, 40) for _ in range(20)]
        cores += [commutator(Word("x") ** m, Word("y") ** n)
                  for m, n in ((1, 1), (3, 2), (-2, 5), (48, 73))]
        for c in cores:
            for size in (0, 1, 2, 17, 500, 5000):
                yield conjugate(c, random_reduced(rng, size))
        # the start point's |j| near |w|: a y^n prefix over a short core
        for n in (1, 7, 2500):
            for h in (Word("y") ** n, Word("Y") ** n):
                yield conjugate(parse("[x,y]"), h)
                yield conjugate(parse("[y,x]"), h)

    def test_conjugated_loops_match_reference(self, rng):
        peeled = 0
        for w in self.conjugated_loops(rng):
            assert abelianize(w) == (0, 0)
            c, ref = lift_chain(w), reference_lift(w)
            assert c == ref, str(w)
            # P and Q in sorted order: the order the full walk decodes in
            assert list(c.P.items()) == sorted(ref.P.items())
            assert list(c.Q.items()) == sorted(ref.Q.items())
            peeled += w.codes[0] == w.codes[-1] ^ 1
        assert peeled >= 150

    def test_non_loop_conjugates_match_reference(self, rng):
        # first letter the inverse of the last, nonzero exponent sums: the
        # walk back over h is translated, so it does not cancel
        words = [parse("xy^5X"), parse("Xy^5x"), parse("yx^3Y"), parse("yxyY")]
        for size in (1, 2, 17, 500, 5000):
            h = random_reduced(rng, size)
            words += [conjugate(Word("x") ** 3, h), conjugate(Word("Y"), h),
                      conjugate(random_reduced(rng, 11), h)]
        words = [w for w in words if w.codes[0] == w.codes[-1] ^ 1]
        assert len(words) >= 12
        for w in words:
            assert abelianize(w) != (0, 0)
            assert lift_chain(w) == reference_lift(w), str(w)

    def test_one_letter_words(self):
        for letter in "xXyY":
            w = Word(letter)
            assert lift_chain(w) == reference_lift(w)

    def test_core_walk_only_for_loops(self, monkeypatch):
        # the peel runs exactly for loops whose first letter is the
        # inverse of their last
        calls = []
        peel = twosquares.cover._peel
        monkeypatch.setattr(twosquares.cover, "_peel", lambda codes: calls.append(codes) or peel(codes))
        for expr, peeled in (("xy^5X", False), ("x^3y^2[x,y]Y^2X^3", True), ("[x,y]", False),
                             ("x[x,y]X", True), ("x", False), ("", False)):
            calls.clear()
            w = parse(expr)
            assert lift_chain(w) == reference_lift(w)
            assert bool(calls) == peeled, expr

    def test_exponent_sums_counted_once(self, rng):
        # a Word keeps its exponent sums, so analyze and the lift's
        # core-walk guard, or homology_image and the guard, count them once
        # between them, and the chain is unchanged, term order included
        class CountingBytes(bytes):
            def count(self, *args):
                counted.append(args)
                return super().count(*args)

        words = list(self.conjugated_loops(rng))
        words += [parse(e) for e in ("xy^5X", "yx^3Y", "x^3yxY", "[x,y]", "x", "")]
        for w in words:
            chain = reference_lift(w)
            routes = [lambda u: analyze(u, depth=1, bound=0).chain]
            if abelianize(w) == (0, 0):
                routes.append(homology_image)
            for route in routes:
                counted = []
                c = route(Word._from_reduced(CountingBytes(w.codes)))
                assert len(counted) == 4, str(w)
                assert list(c.P.items()) == sorted(chain.P.items()), str(w)
                assert list(c.Q.items()) == sorted(chain.Q.items()), str(w)


class TestTrace:
    def test_commutator_trace(self):
        assert lift_trace(parse("[x,y]")) == [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)]

    def test_endpoint_is_abelianization(self, rng):
        for _ in range(500):
            w = random_reduced(rng, rng.randrange(13))
            assert lift_trace(w)[-1] == abelianize(w)

    def test_origin_first(self, rng):
        w = random_reduced(rng, 5)
        trace = lift_trace(w)
        assert trace[0] == (0, 0)
        assert len(trace) == len(w) + 1


class TestChainLaws:
    def test_cycle_law(self, rng):
        # (P, Q) is Fox's (dw/dx, dw/dy) mapped to Z[x^±1, y^±1], and his fundamental
        # formula makes P(x - 1) + Q(y - 1) = x^a y^b - 1 on any word, 0 on a loop
        loops = [random_loop(rng) for _ in range(300)]
        for w in loops:
            c = lift_chain(w)
            assert c.P.eval11() == 0
            assert c.Q.eval11() == 0
        for w in loops + [random_reduced(rng, rng.randrange(61)) for _ in range(300)]:
            c = lift_chain(w)
            a, b = abelianize(w)
            assert c.P * (X - ONE) + c.Q * (Y - ONE) == Laurent2({(a, b): 1}) - ONE, w

    def test_deck_law(self, rng):
        for _ in range(500):
            g = random_loop(rng)
            h = random_reduced(rng, rng.randrange(13))
            a, b = abelianize(h)
            assert lift_chain(conjugate(g, h)) == lift_chain(g).translate(a, b)

    def test_module_action_y(self, rng):
        for _ in range(200):
            g = random_loop(rng)
            twisted = conjugate(g, Word("y")) * ~g
            c = lift_chain(g)
            expected = ChainPair((Y - ONE) * c.P, (Y - ONE) * c.Q)
            assert lift_chain(twisted) == expected

    def test_module_action_x(self, rng):
        for _ in range(200):
            g = random_loop(rng)
            twisted = conjugate(g, Word("x")) * ~g
            c = lift_chain(g)
            expected = ChainPair((X - ONE) * c.P, (X - ONE) * c.Q)
            assert lift_chain(twisted) == expected

    def test_additivity_on_loops(self, rng):
        for _ in range(300):
            g1 = random_loop(rng)
            g2 = random_reduced(rng, rng.randrange(13))
            assert lift_chain(g1 * g2) == lift_chain(g1) + lift_chain(g2)

    def test_additivity_on_open_paths(self, rng):
        # any exponent sums: v's walk starts where u's ends, and a
        # cancelling seam runs one edge forth and back
        cancelled = 0
        for _ in range(500):
            u = random_reduced(rng, rng.randrange(13))
            v = random_reduced(rng, rng.randrange(13))
            cancelled += len(u * v) < len(u) + len(v)
            assert lift_chain(u * v) == lift_chain(u) + lift_chain(v).translate(*abelianize(u))
        assert cancelled >= 50

    def test_inverse_of_loop_negates(self, rng):
        for _ in range(200):
            g = random_loop(rng)
            assert lift_chain(~g) == -lift_chain(g)


class TestTranslate:
    def test_translate_example(self):
        c = lift_chain(parse("[x,y]")).translate(1, 0)
        assert c.P == X - X * Y
        assert c.Q == X * X - X

    def test_identity_translation(self, rng):
        for _ in range(50):
            c = lift_chain(random_reduced(rng, rng.randrange(13)))
            assert c.translate(0, 0) == c

    def test_zero_chain(self):
        c = lift_chain(Word()).translate(5, -3)
        assert not c.P and not c.Q


class TestHomologyImage:
    def test_commutator(self):
        c = homology_image(parse("[x,y]"))
        assert (c.P, c.Q) == (ONE - Y, X - ONE)

    def test_null_homotopic(self):
        w = parse("xyY X")  # reduces to the empty word
        assert w == Word()
        c = homology_image(w)
        assert not c.P and not c.Q

    def test_twisted_commutator(self):
        # (y [x,y] y^-1) [x,y]^-1: chain = (y-1) * chain([x,y]), by hand
        w = conjugate(parse("[x,y]"), Word("y")) * ~parse("[x,y]")
        c = homology_image(w)
        assert c.P == -(Y - ONE) * (Y - ONE)
        assert c.Q == (Y - ONE) * (X - ONE)

    def test_rejects_non_loops(self):
        with pytest.raises(NotALoopError) as info:
            homology_image(parse("x^2Y"))
        assert info.value.expsums == (2, -1)

    def test_json_shape(self):
        j = lift_chain(parse("[x,y]")).to_json()
        assert j == {"P": [[0, 0, 1], [0, 1, -1]], "Q": [[0, 0, -1], [1, 0, 1]]}

    def test_equal_chains_hash_equal(self):
        # the same chain as lift_chain([x,y]), its terms inserted in another order
        c = lift_chain(parse("[x,y]"))
        d = ChainPair(Laurent2({(0, 1): -1, (0, 0): 1}), Laurent2({(1, 0): 1, (0, 0): -1}))
        assert list(c.P.items()) != list(d.P.items())
        assert list(c.Q.items()) != list(d.Q.items())
        assert c == d and hash(c) == hash(d)
        assert len({c, d, c.translate(1, 0)}) == 2
