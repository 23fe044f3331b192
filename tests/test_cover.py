"""Grid lifts: chain examples, endpoint/cycle laws, deck and module actions."""

import pytest

from twosquares import (
    ChainPair,
    Laurent2,
    NotALoopError,
    Word,
    abelianize,
    commutator,
    conjugate,
    homology_image,
    lift_chain,
    lift_trace,
    parse,
)

from conftest import random_loop, random_reduced

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
        for _ in range(300):
            w = random_loop(rng)
            c = lift_chain(w)
            assert c.P.eval11() == 0
            assert c.Q.eval11() == 0
            assert c.is_cycle()

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
