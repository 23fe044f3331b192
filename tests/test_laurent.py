"""Laurent arithmetic: ring laws, collapse, unit stripping, Taylor coefficients at 1."""

import doctest
from math import factorial

import pytest

import twosquares.laurent
from twosquares import (
    Laurent1,
    Laurent2,
    enumerate_reduced,
    in_commutator_subgroup,
    lift_chain,
)

from conftest import random_laurent1, random_laurent2
from reference_laurent import reference_str, reference_strip_units, reference_to_str, synth_div


def L2(terms):
    return Laurent2(terms)


ONE = Laurent2.one()
X = Laurent2.x()
Y = Laurent2.y()


def derivative(f: Laurent1) -> Laurent1:
    """Symbolic d/dt, the reference path for Taylor coefficients."""
    return Laurent1({n - 1: c * n for n, c in f.items() if n != 0})


def taylor_by_derivatives(f: Laurent1, k: int) -> int:
    for _ in range(k):
        f = derivative(f)
    value = sum(c for _, c in f.items())  # evaluate at t = 1
    q, r = divmod(value, factorial(k))
    assert r == 0, "k-th derivative of an integer Laurent polynomial at 1"
    return q


class TestRingOps:
    def test_add_cancels(self):
        assert (X - ONE) + (ONE - X) == Laurent2.zero()

    def test_difference_of_squares(self):
        assert (ONE - Y) * (ONE + Y) == ONE - Y * Y

    def test_expand_product(self):
        # (1+x)(1-y) = 1 + x - y - xy
        assert (ONE + X) * (ONE - Y) == L2({(0, 0): 1, (1, 0): 1, (0, 1): -1, (1, 1): -1})

    def test_ring_laws_random(self, rng):
        for _ in range(200):
            p = random_laurent2(rng)
            q = random_laurent2(rng)
            r = random_laurent2(rng)
            assert p + q == q + p
            assert (p + q) + r == p + (q + r)
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert p + (-p) == Laurent2.zero()

    def test_laurent1_ring_laws_random(self, rng):
        for _ in range(200):
            p = random_laurent1(rng)
            q = random_laurent1(rng)
            r = random_laurent1(rng)
            assert p + q == q + p
            assert p * (q + r) == p * q + p * r
            assert p - p == Laurent1.zero()

    def test_monomial_mul(self, rng):
        assert (ONE - Y).monomial_mul(0, 1) == Y - Y * Y
        p = random_laurent2(rng)
        assert p.monomial_mul(0, 0) == p
        assert (X - ONE).monomial_mul(-1, 0) == ONE - L2({(-1, 0): 1})


class TestSubstitution:
    def test_substitute_x1(self):
        # (1+x)(1-y) at x=1: 2-2y, expanded by hand
        assert ((ONE + X) * (ONE - Y)).substitute_x1() == Laurent1({0: 2, 1: -2})
        assert (X - ONE).substitute_x1() == Laurent1.zero()
        assert (ONE - Y).substitute_x1() == Laurent1({0: 1, 1: -1})

    def test_substitute_y1(self):
        assert (X - ONE).substitute_y1() == Laurent1({0: -1, 1: 1})
        assert (ONE - Y).substitute_y1() == Laurent1.zero()
        # (1+y)(x^2-1) at y=1: 2x^2-2, expanded by hand
        assert ((ONE + Y) * (X * X - ONE)).substitute_y1() == Laurent1({2: 2, 0: -2})

    def test_eval11(self):
        assert (ONE - Y).eval11() == 0
        assert L2({(0, 0): 1, (1, -1): 1}).eval11() == 2
        assert Laurent2.zero().eval11() == 0


class TestTaylor:
    def test_first_coefficient(self):
        assert Laurent1({0: 1, 1: -1}).taylor_coeff(1) == -1

    def test_negative_exponent(self):
        # (y^-1)'' = 2 y^-3, at 1 gives 2, divided by 2! is 1
        assert Laurent1({-1: 1}).taylor_coeff(2) == 1

    def test_zeroth_is_value_at_one(self, rng):
        for _ in range(100):
            f = random_laurent1(rng)
            assert f.taylor_coeff(0) == sum(c for _, c in f.items())

    def test_against_derivative_oracle_exhaustive_monomials(self):
        for n in range(-8, 9):
            for k in range(7):
                f = Laurent1({n: 1})
                assert f.taylor_coeff(k) == taylor_by_derivatives(f, k)

    def test_against_derivative_oracle_random(self, rng):
        for _ in range(500):
            f = random_laurent1(rng)
            k = rng.randrange(7)
            assert f.taylor_coeff(k) == taylor_by_derivatives(f, k)

    def test_against_derivative_oracle_wide_exponents(self, rng):
        # |n| near 300 pushes C(n, k) past 64 bits at k = 11, 12; negative
        # n at odd k exercises the sign of the reflection C(n, k) = -C(k-n-1, k)
        for n in (-300, -257, -200, 200, 257, 300):
            f = Laurent1({n: 1})
            for k in range(13):
                assert f.taylor_coeff(k) == taylor_by_derivatives(f, k)
        assert Laurent1({-300: 1}).taylor_coeff(12) > 2**64
        for _ in range(100):
            f = random_laurent1(rng, span=300, cmax=10**6)
            k = rng.randrange(13)
            assert f.taylor_coeff(k) == taylor_by_derivatives(f, k)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            Laurent1({1: 1}).taylor_coeff(-1)


class TestStripUnits:
    def test_single_unit(self):
        assert (ONE - Y).strip_units() == (0, 1, -1)

    def test_with_cofactor(self):
        # (1+x)(1-y) = (y-1) * -(1+x), and -(1+x) is -2 at (1, 1)
        assert ((ONE + X) * (ONE - Y)).strip_units() == (0, 1, -2)

    def test_both_units(self):
        p = -(X - ONE) * (Y - ONE) * (Y - ONE)
        assert p.strip_units() == (1, 2, -1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Laurent2.zero().strip_units()

    def test_maximality_random(self, rng):
        done = 0
        while done < 200:
            base = random_laurent2(rng, max_terms=4, span=2, cmax=5)
            if not base:
                continue
            k0 = rng.randrange(3)
            l0 = rng.randrange(3)
            p = base
            for _ in range(k0):
                p = p * (X - ONE)
            for _ in range(l0):
                p = p * (Y - ONE)
            k, l, h = reference_strip_units(p)
            assert k >= k0 and l >= l0
            rebuilt = h
            for _ in range(k):
                rebuilt = rebuilt * (X - ONE)
            for _ in range(l):
                rebuilt = rebuilt * (Y - ONE)
            assert rebuilt == p
            assert synth_div(h, 0) is None and synth_div(h, 1) is None
            assert p.strip_units() == (k, l, h.eval11())
            done += 1

    def test_matches_reference_on_loop_chains(self):
        for g in enumerate_reduced(8):
            if not g or not in_commutator_subgroup(g):
                continue
            chain = lift_chain(g)
            for poly in (chain.P, chain.Q):
                if poly:
                    k, l, h = reference_strip_units(poly)
                    assert poly.strip_units() == (k, l, h.eval11())


class TestDisplayAndJson:
    def test_render_matches_convention(self):
        p = L2({(0, 0): -1, (1, 0): 1, (1, 1): -1})
        assert str(p) == "-1 + x - x*y"

    def test_render_exponents(self):
        assert str(L2({(-1, 2): 3})) == "3*x^-1*y^2"
        assert str(Laurent2.zero()) == "0"
        assert Laurent1({-2: -1}).to_str("y") == "-y^-2"

    def test_laurent1_str_and_repr(self):
        f = Laurent1({3: 1, -1: 2})
        assert str(f) == "2*t^-1 + t^3"
        assert repr(f) == "Laurent1({3: 1, -1: 2})"
        assert eval(repr(f), {"Laurent1": Laurent1}) == f

    def test_render_matches_reference_random(self, rng):
        # coefficients +-1, +-2, small, and past 2^64; negative exponents;
        # constants of +-1 and +-k; rows holding a y^0 term
        coefficients = [1, -1, 2, -2, 3, -7, 10, -11, 2**64 + 1, -(2**70) - 3]
        seen = set()
        for trial in range(400):
            span = rng.choice((1, 3, 12))
            terms = {(rng.randint(-span, span), rng.randint(-span, span)): rng.choice(coefficients)
                     for _ in range(rng.randrange(1 + 2 * span * span))}
            if trial % 3 == 0:
                terms[(0, 0)] = rng.choice(coefficients)
            p = L2(terms)
            assert str(p) == reference_str(p), terms
            for var in ("t", "x", "y"):
                f = p.substitute_x1()
                assert f.to_str(var) == reference_to_str(f, var)
            items = sorted(p.items())
            if items:
                seen.add(("first negative", items[0][1] < 0))
                seen.update(("constant", c) for e, c in items if e == (0, 0))
                seen.update("row with y^0" for (i, j), _ in items if i and not j)
        assert {("first negative", True), ("first negative", False), "row with y^0"} <= seen
        assert {("constant", c) for c in (1, -1, 2, -2)} <= seen

    def test_render_edge_cases_match_reference(self):
        polys = [
            Laurent2.zero(), ONE, -ONE, L2({(0, 0): 5}), L2({(0, 0): -5}), X, -Y,
            L2({(-1, 0): -1}), L2({(3, -2): 2**65}), L2({(1, 1): -(2**64)}),
            L2({(0, 0): 1, (0, 1): 11}), L2({(0, 0): -11, (1, 0): 1, (1, 1): 1}),
        ]
        for p in polys:
            assert str(p) == reference_str(p)
            for f in (p.substitute_x1(), p.substitute_y1()):
                assert f.to_str("y") == reference_to_str(f, "y")
        assert str(L2({(0, 0): -11, (1, 0): 1, (1, 1): 1})) == "-11 + x + x*y"
        assert str(L2({(0, 1): 11, (0, 0): 1})) == "1 + 11*y"

    def test_render_unsorted_arithmetic_results(self, rng):
        # sums and products insert their terms in no sorted order
        for _ in range(200):
            p = random_laurent2(rng) * random_laurent2(rng) - random_laurent2(rng)
            f = random_laurent1(rng) * random_laurent1(rng) + random_laurent1(rng)
            assert str(p) == reference_str(p)
            assert f.to_str("t") == reference_to_str(f, "t")
            assert str(f) == reference_to_str(f)

    def test_render_matches_reference_on_loop_chains(self):
        for g in enumerate_reduced(8):
            if not in_commutator_subgroup(g):
                continue
            chain = lift_chain(g)
            for poly in (chain.P, chain.Q):
                assert str(poly) == reference_str(poly)
            for f, var in ((chain.P.substitute_x1(), "y"), (chain.Q.substitute_y1(), "x")):
                assert f.to_str(var) == reference_to_str(f, var)

    def test_render_past_the_table_size(self, monkeypatch):
        # the piece tables empty themselves when full, also in mid-render
        laurent = twosquares.laurent
        tables = (laurent._SIGNED, laurent._X, laurent._POWERS["y"])
        for table in tables:
            table.clear()
        monkeypatch.setattr(laurent, "_TEXTS_MAX", 5)
        p = L2({(i, j): (-1) ** abs(i + j) * (1 + abs(i * j)) for i in range(-6, 7) for j in range(-6, 7)})
        assert str(p) == reference_str(p)
        f = p.substitute_x1()
        assert f.to_str("y") == reference_to_str(f, "y")
        assert all(0 < len(table) <= 5 for table in tables)

    def test_equal_polynomials_hash_equal(self):
        # equal maps, different insertion orders
        pairs = [
            (L2({(0, 0): 1, (1, 1): -1}), L2({(1, 1): -1, (0, 0): 1})),
            ((X - ONE) * (Y - ONE), ONE - X - Y + X * Y),
            (Laurent1({3: 1, -1: 2}), Laurent1({-1: 2, 3: 1})),
        ]
        for p, q in pairs:
            assert list(p.items()) != list(q.items())
            assert p == q and hash(p) == hash(q)
            assert len({p, q}) == 1

    def test_json_sorted(self):
        p = L2({(1, 1): -1, (0, 0): 1, (-1, 0): 2})
        assert p.to_json() == [[-1, 0, 2], [0, 0, 1], [1, 1, -1]]
        f = Laurent1({3: 1, -1: 2})
        assert f.to_json() == [[-1, 2], [3, 1]]

    def test_doctests(self):
        results = doctest.testmod(twosquares.laurent)
        assert results.failed == 0
