"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single pass/fail line (run with ``pytest -s`` to see
them) and enforces its runtime budget.  All expected values are exact
integers or exact word equalities; nothing is approximate.
"""

import json
import time
import tracemalloc
from contextlib import contextmanager

from twosquares.cli import main as cli_main
from twosquares import (
    FactorReport,
    InapplicableCriterionError,
    Word,
    abelianize,
    analyze,
    commutator,
    conjugate,
    enumerate_reduced,
    factor_criterion,
    first_obstruction,
    in_commutator_subgroup,
    ladder,
    lift_chain,
    parity_obstruction,
    parse,
    phi,
    psi,
    search_two_squares,
    square_root,
)
from twosquares.laurent import Laurent1

from conftest import random_laurent1, random_loop, random_reduced

from test_laurent import taylor_by_derivatives

X = Word("x")
Y = Word("y")


@contextmanager
def criterion(number: int, description: str, budget_s: float | None):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget_s is not None:
            assert elapsed < budget_s, (
                f"criterion {number} exceeded its budget: "
                f"{elapsed:.4f} s >= {budget_s} s"
            )
        ok = True
        budget = f" / budget {budget_s * 1000:.0f} ms" if budget_s else ""
        print(f"criterion {number}: PASS ({elapsed * 1000:.2f} ms{budget}) - {description}")
    finally:
        if not ok:
            print(f"criterion {number}: FAIL - {description}")


def test_criterion_1_phi_of_commutator():
    phi(parse("[x,y]"))  # warm-up outside the timed window
    with criterion(1, "phi([x,y]) = -1", 0.001):
        assert phi(parse("[x,y]")) == -1


def test_criterion_2_phi_of_power_commutators():
    with criterion(2, "phi([x^m,y^n]) = -m*n for m,n <= 6", 0.010):
        for m in range(1, 7):
            for n in range(1, 7):
                assert phi(commutator(X**m, Y**n)) == -m * n


def test_criterion_3_phi_of_commutator_powers():
    with criterion(3, "phi([x,y]^n) = -n for n <= 9", 0.010):
        base = parse("[x,y]")
        for n in range(1, 10):
            assert phi(base**n) == -n


def _explicit_witness(m: int, n: int) -> tuple[Word, Word]:
    """The closed-form witness for [x^m, y^n] with m*n even."""
    if m % 2 == 0:
        return X ** (m // 2), Y**n * X ** (-(m // 2)) * Y**-n
    # m odd forces n even; mirror the identity through the inverse word
    return X**m * Y ** (n // 2) * X**-m, Y ** (-(n // 2))


def test_criterion_4_power_commutator_classification(capsys):
    with criterion(4, "[x^m,y^n] two squares iff m*n even, witnessed", 5.0):
        for m in range(1, 7):
            for n in range(1, 7):
                w = commutator(X**m, Y**n)
                code = cli_main(["check", "--format", "json", f"[x^{m},y^{n}]"])
                payload = json.loads(capsys.readouterr().out)
                assert code == 0
                verdict = payload["verdict"]
                if (m * n) % 2 == 0:
                    assert verdict["kind"] == "TwoSquares"
                    a = parse(verdict["witness"]["a"])
                    b = parse(verdict["witness"]["b"])
                    assert a * a * b * b == w
                    a, b = _explicit_witness(m, n)
                    assert a * a * b * b == w
                else:
                    assert verdict["kind"] == "NotTwoSquares"
                    obs = parity_obstruction(w)
                    assert obs is not None and obs.value == -m * n
                    assert obs.value % 2 != 0


def test_criterion_5_ladder_realizing_words():
    with criterion(5, "w_k realizes phi_k = -1 with psi identically 0", 0.100):
        w = parse("[x,y]")
        for k in range(2, 6):
            w = conjugate(w, Y) * ~w  # w_(k+1) from w_k
            entries = ladder(w, 8)
            for e in entries:
                if e.k < k:
                    assert e.phi == 0
                elif e.k == k:
                    assert e.phi == -1 and e.phi_defined
                assert e.psi == 0
            assert first_obstruction(w, 8) == (k, -1, "phi")


def test_criterion_6_all_vanishing_word():
    with criterion(6, "f = g = 0 yet factor criterion obstructs", 0.010):
        w2 = conjugate(parse("[x,y]"), Y) * ~parse("[x,y]")
        w = conjugate(w2, X) * ~w2
        chain = lift_chain(w)
        assert chain.P.substitute_x1() == Laurent1.zero()
        assert chain.Q.substitute_y1() == Laurent1.zero()
        fr = factor_criterion(w)
        assert fr.h11 == -1
        report = analyze(w)
        assert report.verdict.kind == "NotTwoSquares"
        assert "factor criterion" in report.verdict.reason


def test_criterion_7_property_suite(rng):
    cases = 500
    with criterion(7, f"property suite, {cases} random cases each", None):
        # psi = -phi on the commutator subgroup
        for _ in range(cases):
            g = random_loop(rng, 12)
            assert psi(g) == -phi(g)

        # conjugacy invariance of phi and of the first defined nonzero
        # ladder value
        for _ in range(cases):
            g = random_loop(rng, 12)
            h = random_reduced(rng, rng.randrange(13))
            assert phi(conjugate(g, h)) == phi(g)
            assert first_obstruction(conjugate(g, h), 8) == first_obstruction(g, 8)

        # chain deck law
        for _ in range(cases):
            g = random_loop(rng, 12)
            h = random_reduced(rng, rng.randrange(13))
            a, b = abelianize(h)
            assert lift_chain(conjugate(g, h)) == lift_chain(g).translate(a, b)

        # parity soundness on explicit products of two squares
        for _ in range(cases):
            c = random_loop(rng, 8)
            h = random_reduced(rng, rng.randrange(5))
            g = c * conjugate(c, ~h)
            assert g == (c * ~h) ** 2 * h**2
            assert phi(g) % 2 == 0
            obs = first_obstruction(g, 8)
            assert obs is None or obs.value % 2 == 0
            try:
                assert factor_criterion(g, "P").h11 % 2 == 0
            except InapplicableCriterionError:
                pass

        # Taylor coefficients: integral and equal to the derivative oracle
        for _ in range(cases):
            f = random_laurent1(rng)
            k = rng.randrange(7)
            value = f.taylor_coeff(k)
            assert isinstance(value, int)
            assert value == taylor_by_derivatives(f, k)


def test_criterion_8_oracle_obstruction_consistency():
    with criterion(8, "no word of length <= 8 is witnessed and obstructed", 60.0):
        for g in enumerate_reduced(8):
            if not in_commutator_subgroup(g):
                continue
            witness = search_two_squares(g, 4)
            if witness is None:
                continue
            assert witness.product() == g
            assert parity_obstruction(g, 8) is None
            try:
                assert not factor_criterion(g, "P").obstructs
            except InapplicableCriterionError:
                pass


def test_criterion_9_square_root_exhaustive():
    with criterion(9, "square_root exact on all words of length <= 6", 10.0):
        words = list(enumerate_reduced(6))
        squares = {}
        for v in words:
            squares.setdefault(v * v, v)
        for w in words:
            root = square_root(w)
            if w in squares:
                assert root == squares[w]
                assert root * root == w
            else:
                assert root is None
        for v in words:
            assert square_root(v * v) == v


def test_criterion_10_linear_parse():
    text = "xy" * 80_000
    expected = Word(b"\x00\x02" * 80_000)
    parse("xy" * 1000)  # warm-up outside the timed window
    with criterion(10, "parse 160k letters in one linear pass", 0.5):
        assert parse(text) == expected


def test_criterion_11_factor_criterion_without_quotient():
    w = parse("[x^1000,y^1000]")
    expected = FactorReport(0, 1, -1_000_000, "P")
    tracemalloc.start()  # also the warm-up, outside the timed window
    try:
        assert factor_criterion(w) == expected
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MB >= 5 MB"
    with criterion(11, "factor criterion on [x^1000,y^1000]: h(1,1) = -10^6", 0.1):
        assert factor_criterion(w) == expected
