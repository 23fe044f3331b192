"""Obstruction ladder, factor criterion, and the combined analyzer."""

import random

import pytest

from twosquares import (
    Laurent1,
    Laurent2,
    NotALoopError,
    Verdict,
    Word,
    abelianize,
    analyze,
    conjugate,
    enumerate_reduced,
    in_commutator_subgroup,
    ladder,
    lift_chain,
    parse,
    phi,
    search_with_stats,
)
from twosquares.obstructions import JOINT_IMAGE_REASON, MAX_DEPTH, FactorReport

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
        # psi_1 is the ladder's first rung on the Q side
        assert ladder(parse("[x,y]"), 1)[0].psi == 1
        assert ladder(parse("[x^2,y]"), 1)[0].psi == 2
        assert ladder(Word(), 1)[0].psi == 0

    def test_rejects_non_loops(self):
        with pytest.raises(NotALoopError):
            phi(Word("x"))
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
        # one check, one message, whichever entry point meets the depth
        for call in (ladder, analyze):
            with pytest.raises(ValueError, match="^depth must be >= 1$"):
                call(parse("[x,y]"), 0)
            with pytest.raises(ValueError, match=f"^depth must be <= {MAX_DEPTH}$"):
                call(parse("[x,y]"), MAX_DEPTH + 1)
        assert len(ladder(parse("[x,y]"), MAX_DEPTH)) == MAX_DEPTH == 10_000


class TestFirstObstruction:
    def test_commutator(self):
        assert analyze(parse("[x,y]"), bound=0).first_obstruction == (1, -1, "phi")

    def test_second_rung(self):
        assert analyze(ladder_word(2), bound=0).first_obstruction == (2, -1, "phi")

    def test_all_vanishing_has_none(self):
        assert analyze(all_vanishing_word(), 10, bound=0).first_obstruction is None

    def test_psi_side_can_win(self):
        # mirror of ladder_word(2) in the generators: psi carries the value
        w = parse("[y,x]")
        for _ in range(1):
            w = twist(w, Word("x"))
        obs = analyze(w, bound=0).first_obstruction
        assert obs is not None and obs.side == "psi"


class TestParityObstruction:
    def test_odd_commutator(self):
        assert analyze(parse("[x,y]")).verdict.reason == "phi_1 = -1 is odd"

    def test_even_value_not_obstructed(self):
        assert analyze(parse("[x^2,y]"), bound=0).verdict.kind == "Unknown"

    def test_odd_power(self):
        assert analyze(parse("[x,y]^5")).verdict.reason == "phi_1 = -5 is odd"


class TestFactorCriterion:
    def test_commutator(self):
        fr = analyze(parse("[x,y]"), bound=0).factors[0]
        assert (fr.k, fr.l, fr.h11, fr.side) == (0, 1, -1, "P")
        assert fr.obstructs

    def test_all_vanishing_word_is_caught(self):
        fr = analyze(all_vanishing_word(), bound=0).factors[0]
        assert (fr.k, fr.l, fr.h11) == (1, 2, -1)
        assert fr.obstructs

    def test_even_case_passes(self):
        fr = analyze(parse("[x^2,y]"), bound=0).factors[0]
        assert (fr.k, fr.l, fr.h11) == (0, 1, -2)
        assert not fr.obstructs

    def test_q_side(self):
        # Q([x,y]) = x-1 strips to h = 1: odd, agreeing with the P side
        (fr,) = analyze(parse("[x,y]"), side="Q").factors
        assert fr.side == "Q"
        assert (fr.k, fr.l, fr.h11) == (1, 0, 1)
        assert fr.obstructs
        assert not fr.to_json()["paper_stated"]


class TestCycleLaw:
    """A loop's chain is a cycle, P(x-1) + Q(y-1) = 0, so Q's factor
    report is read off P's: (k, l, h11) on P gives (k+1, l-1, -h11) on Q.
    P's is read off phi_1 when phi_1 != 0: (0, 1, phi_1)."""

    @staticmethod
    def loop_words():
        yield from (g for g in enumerate_reduced(10) if in_commutator_subgroup(g))
        for m, n in ((1, 1), (2, 3), (3, 3), (4, 1), (5, 2), (6, 4)):
            yield conjugate(parse(f"[x^{m},y^{n}]"), parse("yxY^2x"))
        rng = random.Random(12)
        u, v = random_reduced(rng, 250), random_reduced(rng, 250)
        yield u * v * ~u * ~v  # about 1000 letters

    @staticmethod
    def long_loops():
        """Seeded loops of 2k-20k letters: random walks closed straight,
        whose phi_1 is nonzero, and twists of such walks, whose is 0."""
        rng = random.Random(29)
        for n, t in zip((2000, 5000, 10000, 20000), "xyxy"):
            walks = []
            for size in (n, n // 2):
                w = random_reduced(rng, size)
                a, b = abelianize(w)
                walks.append(w * Word("X") ** a * Word("Y") ** b)
            yield walks[0]
            yield twist(walks[1], Word(t))

    @staticmethod
    def assert_reports_are_strips(g):
        """analyze's factor reports at side both are the two strips."""
        chain = lift_chain(g)
        assert bool(chain.P) == bool(chain.Q), g
        reports = analyze(g, bound=0, side="both").factors
        if chain.P:
            assert reports == (FactorReport(*chain.P.strip_units(), "P"),
                               FactorReport(*chain.Q.strip_units(), "Q")), g
        else:
            assert reports == ()

    def test_q_report_is_derived_from_p(self):
        longest = 0
        for g in self.loop_words():
            longest = max(longest, len(g))
            self.assert_reports_are_strips(g)
            kinds = {analyze(g, bound=0, side=s).verdict.kind for s in ("P", "Q", "both")}
            assert len(kinds) == 1, g
        assert longest >= 900

    def test_reports_equal_strips_on_all_short_loops(self):
        # both branches: P's report read off phi_1 != 0, and P stripped
        loops = [g for g in enumerate_reduced(10) if in_commutator_subgroup(g)]
        assert len(loops) == 2601
        branches = {bool(phi(g)) for g in loops if g}
        assert branches == {False, True}
        for g in loops:
            self.assert_reports_are_strips(g)

    def test_reports_equal_strips_on_long_loops(self):
        long_loops = list(self.long_loops())
        assert [bool(phi(g)) for g in long_loops] == [True, False] * 4
        assert 2000 <= min(map(len, long_loops)) and max(map(len, long_loops)) <= 21000
        for g in long_loops:
            self.assert_reports_are_strips(g)

    def test_one_strip_per_report(self, monkeypatch):
        # P's report is read off phi_1 when phi_1 != 0, so P is stripped
        # only when phi_1 = 0, and then once, at every side
        calls = []
        strip_units = Laurent2.strip_units

        def counted(poly):
            calls.append(poly)
            return strip_units(poly)

        monkeypatch.setattr(Laurent2, "strip_units", counted)
        for g, strips in ((parse("[x,y]"), 0), (parse("[x^2,y]"), 0), (parse("[x,y]^2"), 0),
                          (ladder_word(2), 1), (all_vanishing_word(), 1)):
            assert (phi(g) == 0) == bool(strips), g
            for side in ("P", "Q", "both"):
                calls.clear()
                analyze(g, bound=0, side=side)
                assert len(calls) == strips, (g, side)


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
        assert report.verdict == Verdict(
            "NotTwoSquares",
            reason="exponent sums (1, 1): every a^2 b^2 has even exponent sums",
        )
        assert report.expsums == (1, 1)
        assert report.f is None and report.g is None and report.ladder == []
        assert report.search is None  # the sums settled it; no search run
        even = analyze(parse("x^3yXY"))
        assert even.verdict.kind == "Unknown"
        assert even.expsums == (2, 0) and even.ladder == []
        assert (even.search.bound, even.search.checked) == (6, 1457)
        report2 = analyze(parse("x^2"))
        assert report2.verdict.kind == "TwoSquares"

    def test_odd_exponent_sum_decides_exactly(self):
        # every reduced word of length <= 6: the sums' verdict fires on
        # exactly the 924 words with an odd sum, none of which the search
        # can witness at its default bound
        odd = 0
        for g in enumerate_reduced(6):
            sums = abelianize(g)
            report = analyze(g)
            mod2 = (report.verdict.reason or "").endswith("every a^2 b^2 has even exponent sums")
            assert mod2 == (sums[0] % 2 != 0 or sums[1] % 2 != 0), g
            if mod2:
                odd += 1
                assert report.verdict.kind == "NotTwoSquares"
                assert search_with_stats(g).witness is None, g
        assert odd == 924

    @pytest.mark.parametrize("word", ["x", "[x,y]", "[x^2,y]"])
    @pytest.mark.parametrize(
        "option",
        [{"side": "Z"}, {"bound": -1}, {"depth": 0}, {"depth": MAX_DEPTH + 1}],
        ids=["side", "bound", "depth", "depth_cap"],
    )
    def test_bad_arguments_refused_on_every_word(self, word, option):
        with pytest.raises(ValueError):
            analyze(parse(word), **option)

    def test_search_bound_defaults_to_word_length(self):
        g = parse("[x^2,y]")
        assert analyze(g).search.bound == len(g)
        assert search_with_stats(g).bound == len(g)
        # past 12 letters the default stops at 12: a miss there checks 1,062,881
        assert search_with_stats(parse("[x^8,y^8]")).bound == 12

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

    def test_report_is_immutable(self):
        report = analyze(parse("[x,y]"))
        with pytest.raises(AttributeError):
            report.verdict = Verdict("Unknown", reason="overwritten")

    def test_agrees_with_standalone_views(self, rng):
        for _ in range(300):
            g = random_loop(rng, 12)
            report = analyze(g, bound=0)
            assert report.ladder == ladder(g)
            assert report.ladder[0].phi == phi(g)


def signed_area(w: Word) -> int:
    """The integral of x dy along w's grid path, walked letter by letter."""
    x = area = 0
    for c in w.codes:
        x += (1, -1, 0, 0)[c]
        area += (0, 0, x, -x)[c]
    return area


class TestSignedArea:
    """Sums both 0 mod 4 and an odd signed area refute a non-loop word:
    in the Heisenberg group u^2 v^2 = (2(a+a'), 2(b+b'), even + ab + a'b')."""

    def test_refutes_exactly_464_words_up_to_length_8(self):
        refuted = {}
        joint = 0
        for g in enumerate_reduced(8):
            s, t = abelianize(g)
            if s % 2 or t % 2 or (s, t) == (0, 0):
                continue
            verdict = analyze(g, bound=0).verdict
            area = signed_area(g)
            if s % 4 == t % 4 == 0 and area % 2:
                assert verdict.reason == (
                    f"exponent sums {(s, t)} are 0 mod 4 and the signed area {area} is odd"
                ), g
                assert search_with_stats(g, 5).witness is None, g
                refuted[len(g)] = refuted.get(len(g), 0) + 1
            elif verdict.reason == JOINT_IMAGE_REASON:
                joint += 1  # the next test in line; tests/test_quotients.py checks these
            else:
                assert verdict.kind != "NotTwoSquares", g
                if verdict.kind == "Unknown":
                    applied = (f"are 0 mod 4 but the signed area {area} is even"
                               if s % 4 == t % 4 == 0 else "!= (0, 0): obstruction tests do not apply")
                    assert verdict.reason.startswith(f"exponent sums {(s, t)} {applied}; "), g
        assert refuted == {6: 48, 8: 416}
        assert joint == 64

    def test_shortest_example(self):
        report = analyze(parse("x^3yxY"))
        assert report.verdict.reason == (
            "exponent sums (4, 0) are 0 mod 4 and the signed area -1 is odd"
        )
        assert report.search is None and report.ladder == []

    @pytest.mark.parametrize("expr, calls", [("x^2y^2", 0), ("x^3yxY", 1)])
    def test_area_computed_only_for_sums_0_mod_4(self, monkeypatch, expr, calls):
        counted = []
        original = Laurent2.substitute_y1

        def counting(self):
            counted.append(self)
            return original(self)

        monkeypatch.setattr(Laurent2, "substitute_y1", counting)
        analyze(parse(expr))
        assert len(counted) == calls

    def test_area_parity_is_phi_parity_on_loops(self):
        loops = [g for g in enumerate_reduced(10) if in_commutator_subgroup(g)]
        assert len(loops) == 2601
        for g in loops:
            assert signed_area(g) % 2 == phi(g) % 2, g

    def test_verdict_invariant_under_conjugation(self, rng):
        refuted = 0
        for _ in range(400):
            g = random_reduced(rng, rng.randrange(2, 15))
            s, t = abelianize(g)
            if s % 2 or t % 2 or (s, t) == (0, 0):
                continue
            h = random_reduced(rng, rng.randrange(1, 9))
            kind = analyze(g, bound=0).verdict.kind
            assert analyze(conjugate(g, h), bound=0).verdict.kind == kind, (g, h)
            refuted += kind == "NotTwoSquares"
        assert refuted >= 5


class TestVerdict:
    """Both checks hold on every construction path: the call, _make and _replace."""

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown verdict kind"):
            Verdict("Maybe", reason="?")
        with pytest.raises(ValueError, match="unknown verdict kind"):
            Verdict._make(["Maybe", "?", None])

    def test_two_squares_needs_witness(self):
        with pytest.raises(ValueError, match="needs a witness"):
            Verdict("TwoSquares", reason="trust me")
        with pytest.raises(ValueError, match="needs a witness"):
            analyze(parse("[x,y]")).verdict._replace(kind="TwoSquares")


class TestHomomorphismProperties:
    def test_phi_additive(self, rng):
        for _ in range(500):
            g1, g2 = random_loop(rng), random_loop(rng)
            assert phi(g1 * g2) == phi(g1) + phi(g2)

    def test_psi_is_minus_phi(self, rng):
        # the ladder computes psi_1 from Q alone; the cycle law makes it -phi_1
        for _ in range(500):
            g = random_loop(rng)
            assert ladder(g, 1)[0].psi == -phi(g)

    def test_phi_conjugacy_invariant(self, rng):
        for _ in range(500):
            g = random_loop(rng)
            h = random_reduced(rng, rng.randrange(13))
            assert phi(conjugate(g, h)) == phi(g)

    def test_first_ladder_value_conjugacy_invariant(self, rng):
        for _ in range(500):
            g = random_loop(rng)
            h = random_reduced(rng, rng.randrange(13))
            first = analyze(g, 8, bound=0).first_obstruction
            assert analyze(conjugate(g, h), 8, bound=0).first_obstruction == first

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
            assert analyze(g, 8, bound=0).verdict.kind != "NotTwoSquares"

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
