"""Obstruction ladder, factor criterion, and the combined analyzer."""

import pytest

from twosquares import (
    InapplicableCriterionError,
    Laurent1,
    NotALoopError,
    Verdict,
    Word,
    abelianize,
    analyze,
    conjugate,
    factor_criterion,
    first_obstruction,
    in_commutator_subgroup,
    ladder,
    lift_chain,
    parity_obstruction,
    parse,
    phi,
    psi,
)

from conftest import random_loop, random_reduced


def twist(g: Word, t: Word) -> Word:
    """(t g t^-1) g^-1: multiplies the chain of a loop by (t_ab - 1)."""
    return conjugate(g, t) * ~g


def ladder_word(k: int) -> Word:
    """w_1 = [x,y], w_(k+1) = (y w_k y^-1) w_k^-1; phi vanishes below k."""
    w = parse("[x,y]")
    for _ in range(k - 1):
        w = twist(w, Word("y"))
    return w


def all_vanishing_word() -> Word:
    """Chain is (x-1)(y-1) * chain([x,y]): f and g vanish identically."""
    return twist(ladder_word(2), Word("x"))


def first_nonzero_taylor(f: Laurent1, depth: int = 12):
    for k in range(1, depth + 1):
        v = f.taylor_coeff(k)
        if v:
            return k, v
    return None


class TestPhiPsi:
    def test_phi_commutator(self):
        assert phi(parse("[x,y]")) == -1

    def test_phi_power_commutators(self):
        assert phi(parse("[x^3,y^2]")) == -6
        assert phi(parse("[x,y]^3")) == -3

    def test_psi_values(self):
        assert psi(parse("[x,y]")) == 1
        assert psi(parse("[x^2,y]")) == 2
        assert psi(Word()) == 0

    def test_rejects_non_loops(self):
        for fn in (phi, psi, parity_obstruction, first_obstruction, factor_criterion):
            with pytest.raises(NotALoopError):
                fn(Word("x"))
        with pytest.raises(NotALoopError):
            ladder(Word("xy"), 3)


class TestLadder:
    def test_commutator_ladder(self):
        entries = ladder(parse("[x,y]"), 3)
        assert [(e.k, e.phi, e.phi_defined) for e in entries] == [
            (1, -1, True),
            (2, 0, False),
            (3, 0, False),
        ]

    def test_second_rung(self):
        entries = ladder(ladder_word(2), 3)
        assert [(e.phi, e.phi_defined) for e in entries] == [
            (0, True),
            (-1, True),
            (0, False),
        ]
        assert all(e.psi == 0 and e.psi_defined for e in entries)

    def test_all_vanishing(self):
        entries = ladder(all_vanishing_word(), 8)
        assert all(e.phi == 0 and e.psi == 0 for e in entries)
        assert all(e.phi_defined and e.psi_defined for e in entries)

    def test_depth_validation(self):
        with pytest.raises(ValueError):
            ladder(parse("[x,y]"), 0)


class TestFirstObstruction:
    def test_commutator(self):
        assert first_obstruction(parse("[x,y]")) == (1, -1, "phi")

    def test_second_rung(self):
        assert first_obstruction(ladder_word(2)) == (2, -1, "phi")

    def test_all_vanishing_has_none(self):
        assert first_obstruction(all_vanishing_word(), 10) is None

    def test_psi_side_can_win(self):
        # mirror of ladder_word(2) in the generators: psi carries the value
        w = parse("[y,x]")
        for _ in range(1):
            w = twist(w, Word("x"))
        obs = first_obstruction(w)
        assert obs is not None and obs.side == "psi"


class TestParityObstruction:
    def test_odd_commutator(self):
        obs = parity_obstruction(parse("[x,y]"))
        assert obs == (1, -1, "phi")

    def test_even_value_not_obstructed(self):
        assert parity_obstruction(parse("[x^2,y]")) is None

    def test_odd_power(self):
        assert parity_obstruction(parse("[x,y]^5")) == (1, -5, "phi")


class TestFactorCriterion:
    def test_commutator(self):
        fr = factor_criterion(parse("[x,y]"))
        assert (fr.k, fr.l, fr.h11, fr.side) == (0, 1, -1, "P")
        assert fr.obstructs

    def test_all_vanishing_word_is_caught(self):
        fr = factor_criterion(all_vanishing_word())
        assert (fr.k, fr.l, fr.h11) == (1, 2, -1)
        assert fr.obstructs

    def test_even_case_passes(self):
        fr = factor_criterion(parse("[x^2,y]"))
        assert (fr.k, fr.l, fr.h11) == (0, 1, -2)
        assert not fr.obstructs

    def test_q_side(self):
        # Q([x,y]) = x-1 strips to h = 1: odd, agreeing with the P side
        fr = factor_criterion(parse("[x,y]"), side="Q")
        assert fr.side == "Q"
        assert (fr.k, fr.l, fr.h11) == (1, 0, 1)
        assert fr.obstructs
        assert not fr.to_json()["paper_stated"]

    def test_zero_side_inapplicable(self):
        with pytest.raises(InapplicableCriterionError):
            factor_criterion(Word(), side="P")

    def test_bad_side(self):
        with pytest.raises(ValueError):
            factor_criterion(parse("[x,y]"), side="R")


class TestAnalyze:
    def test_commutator_not_two_squares(self):
        report = analyze(parse("[x,y]"))
        assert report.verdict.kind == "NotTwoSquares"
        assert "phi_1 = -1" in report.verdict.reason
        assert report.search is None  # obstruction settled it; no search run

    def test_even_commutator_two_squares(self):
        report = analyze(parse("[x^2,y]"))
        assert report.verdict.kind == "TwoSquares"
        w = report.verdict.witness
        assert (w.a, w.b) == (Word("x"), Word("yXY"))
        assert w.product() == parse("[x^2,y]")

    def test_all_vanishing_caught_by_factor(self):
        report = analyze(all_vanishing_word())
        assert report.verdict.kind == "NotTwoSquares"
        assert "factor criterion" in report.verdict.reason
        assert report.first_obstruction is None

    def test_outside_commutator_subgroup(self):
        report = analyze(Word("xy"), bound=2)
        assert report.verdict.kind == "Unknown"
        assert report.expsums == (1, 1)
        assert report.f is None and report.g is None and report.ladder == []
        report2 = analyze(parse("x^2"))
        assert report2.verdict.kind == "TwoSquares"

    def test_identity_is_trivially_two_squares(self):
        report = analyze(Word())
        assert report.verdict.kind == "TwoSquares"
        assert report.verdict.witness.a == Word()

    def test_unknown_at_small_bound(self):
        report = analyze(parse("[x^2,y]"), bound=0)
        assert report.verdict.kind == "Unknown"
        assert "no witness" in report.verdict.reason

    def test_side_both(self):
        report = analyze(parse("[x,y]^2"), side="both")
        assert {fr.side for fr in report.factors} == {"P", "Q"}

    def test_json_schema(self):
        j = analyze(parse("[x,y]")).to_json()
        assert list(j) == [
            "word", "expsums", "P", "Q", "f", "g",
            "ladder", "first_obstruction", "factor", "verdict",
        ]
        assert j["verdict"] == {"kind": "NotTwoSquares", "reason": "phi_1 = -1 is odd"}
        assert j["first_obstruction"] == {"k": 1, "value": -1, "side": "phi"}

    def test_agrees_with_standalone_views(self, rng):
        for _ in range(300):
            g = random_loop(rng, 12)
            report = analyze(g, bound=0)
            assert report.ladder == ladder(g)
            assert report.first_obstruction == first_obstruction(g)
            parity = parity_obstruction(g)
            if parity is not None:
                assert report.verdict.reason == f"{parity.describe()} is odd"
            assert (report.ladder[0].phi, report.ladder[0].psi) == (phi(g), psi(g))


class TestVerdict:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown verdict kind"):
            Verdict("Maybe", reason="?")

    def test_two_squares_needs_witness(self):
        with pytest.raises(ValueError, match="needs a witness"):
            Verdict("TwoSquares", reason="trust me")


class TestHomomorphismProperties:
    def test_phi_additive(self, rng):
        for _ in range(500):
            g1, g2 = random_loop(rng), random_loop(rng)
            assert phi(g1 * g2) == phi(g1) + phi(g2)

    def test_psi_is_minus_phi(self, rng):
        for _ in range(500):
            g = random_loop(rng)
            assert psi(g) == -phi(g)

    def test_phi_conjugacy_invariant(self, rng):
        for _ in range(500):
            g = random_loop(rng)
            h = random_reduced(rng, rng.randrange(13))
            assert phi(conjugate(g, h)) == phi(g)

    def test_first_ladder_value_conjugacy_invariant(self, rng):
        for _ in range(500):
            g = random_loop(rng)
            h = random_reduced(rng, rng.randrange(13))
            assert first_obstruction(g, 8) == first_obstruction(conjugate(g, h), 8)

    def test_ladder_additive_on_kernel_domain(self, rng):
        # elements with chain divisible by (y-1)^(k-1) realize the k-th rung;
        # products of two of them stay in the domain and the value adds
        for _ in range(150):
            k = rng.randrange(2, 5)
            g1, g2 = random_loop(rng, 8), random_loop(rng, 8)
            for _ in range(k - 1):
                g1 = twist(g1, Word("y"))
                g2 = twist(g2, Word("y"))
            e1 = ladder(g1, k)
            e2 = ladder(g2, k)
            e12 = ladder(g1 * g2, k)
            assert all(e.phi == 0 for e in e12[: k - 1])
            assert e12[k - 1].phi_defined
            assert e12[k - 1].phi == e1[k - 1].phi + e2[k - 1].phi

    def test_ladder_value_conjugacy_invariant_on_kernel_domain(self, rng):
        for _ in range(150):
            k = rng.randrange(2, 5)
            g = random_loop(rng, 8)
            for _ in range(k - 1):
                g = twist(g, Word("y"))
            h = random_reduced(rng, rng.randrange(9))
            assert ladder(conjugate(g, h), k)[k - 1].phi == ladder(g, k)[k - 1].phi


class TestLiftIndependence:
    def test_first_nonzero_taylor_shift_invariant(self, rng):
        for _ in range(500):
            g = random_loop(rng)
            c = lift_chain(g)
            a, b = rng.randrange(-5, 6), rng.randrange(-5, 6)
            f0 = c.P.substitute_x1()
            f1 = c.translate(a, b).P.substitute_x1()
            assert first_nonzero_taylor(f0) == first_nonzero_taylor(f1)


class TestParitySoundness:
    def test_products_of_conjugates_pass_all_criteria(self, rng):
        for _ in range(500):
            c = random_loop(rng, 8)
            h = random_reduced(rng, rng.randrange(5))
            g = c * conjugate(c, ~h)  # equals (c h^-1)^2 h^2
            assert g == (c * ~h) ** 2 * h**2
            assert phi(g) % 2 == 0
            obs = first_obstruction(g, 8)
            if obs is not None:
                assert obs.value % 2 == 0
            assert parity_obstruction(g, 8) is None
            try:
                assert factor_criterion(g, "P").h11 % 2 == 0
            except InapplicableCriterionError:
                pass

    def test_conjugate_halves_carry_half_phi(self, rng):
        for _ in range(500):
            c = random_loop(rng, 8)
            h = random_reduced(rng, rng.randrange(5))
            g = c * conjugate(c, ~h)
            assert phi(g) == 2 * phi(c)

    def test_half_membership(self, rng):
        # if g = c (h^-1 c h) lands in the commutator subgroup, so does c
        for _ in range(500):
            c = random_reduced(rng, rng.randrange(1, 9))
            h = random_reduced(rng, rng.randrange(5))
            g = c * conjugate(c, ~h)
            assert in_commutator_subgroup(g) == in_commutator_subgroup(c)
            if in_commutator_subgroup(g):
                assert abelianize(c) == (0, 0)
