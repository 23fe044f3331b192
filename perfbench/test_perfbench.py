"""Tests of the benchmark's own checks.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import answer_key
import compare
import run
import workloads
from answer_key import NOT, TWO, UNKNOWN

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def json_report(word: str, kind: str, witness=None) -> str:
    verdict = {"kind": kind}
    if witness:
        verdict["witness"] = {"a": witness[0], "b": witness[1]}
    else:
        verdict["reason"] = "planted"
    return json.dumps({"word": word, "verdict": verdict}, indent=2)


def loops_item(letters: str) -> workloads.Item:
    key = answer_key.load_loops_key()
    return workloads.Item(answer_key.run_length(letters), letters, len(letters), 5, pinned=key[letters])


def judge(workload, item, outputs) -> run.Measurement:
    m = run.Measurement()
    m._judge(workload, 0, item, outputs, None, None)
    return m


def test_reduction_and_expansion():
    assert answer_key.reduce_word("xyYXxy") == "xy"
    assert answer_key.inverse("xyXY") == "yxYX"
    assert answer_key.expand("x^2Y^-3") == "xxyyy"
    assert answer_key.expand("e") == ""
    assert answer_key.run_length("xxYyyy") == "x^2Yy^3"
    with pytest.raises(ValueError):
        answer_key.expand("[x,y]")


def test_power_commutator_family_has_closed_form_witnesses():
    for m in range(1, 7):
        for n in range(1, 7):
            word = answer_key.reduce_word(("x" * m + "y" * n + "X" * m + "Y" * n))
            kind = answer_key.power_commutator_kind(m, n, 1)
            assert kind == (TWO if m * n % 2 == 0 else NOT)
            if kind == TWO:
                if m % 2 == 0:
                    a, b = f"x^{m // 2}", f"y^{n}x^{-(m // 2)}y^{-n}"
                else:
                    a, b = f"x^{m}y^{n // 2}x^{-m}", f"y^{-(n // 2)}"
                assert answer_key.witness_problem(word, a, b) is None


def test_loops_key_matches_the_pinned_tally():
    key = answer_key.load_loops_key()
    assert len(key) == len(workloads.loop_words(workloads.LOOPS_MAX_LEN)) == 2601
    assert {k: list(key.values()).count(k) for k in answer_key.KINDS} == answer_key.LOOPS_TALLY


def test_planted_wrong_witness_is_a_failure():
    item = loops_item("xxyXXY")  # [x^2, y], pinned TwoSquares
    assert item.pinned == TWO
    good = judge("loops", item, (json_report("x^2yX^2Y", TWO, ("x", "yXY")),))
    assert good.failed == 0 and good.kinds == [TWO]
    bad = judge("loops", item, (json_report("x^2yX^2Y", TWO, ("x", "yX")),))
    assert bad.failed == 1 and "does not multiply" in bad.problems[0]


def test_planted_verdict_flip_on_the_loops_key_is_a_failure():
    item = loops_item("xyXY")  # [x, y], pinned NotTwoSquares
    assert item.pinned == NOT
    for kind in (UNKNOWN, TWO):
        m = judge("loops", item, (json_report("xyXY", kind),))
        assert m.failed == 1
        assert "flipped" in " ".join(m.problems)
    unknown = next(w for w, k in answer_key.load_loops_key().items() if k == UNKNOWN)
    shrink = judge("loops", loops_item(unknown), (json_report(answer_key.run_length(unknown), NOT),))
    assert shrink.failed == 0


def test_wrong_word_and_known_family_are_failures():
    item = workloads.Item("xyXY", "xyXY", 4, 2, expected=NOT)
    assert judge("long", item, (json_report("xyXY", NOT), "word: xyXY\nverdict: NotTwoSquares (odd)")).failed == 0
    assert judge("long", item, (json_report("xyX", NOT), "word: xyX\nverdict: NotTwoSquares (odd)")).failed == 1
    contradicted = judge("long", item, (json_report("xyXY", TWO, ("e", "e")), "word: xyXY\nverdict: TwoSquares (a = e, b = e)"))
    assert contradicted.failed == 1


def test_cli_exit_code_must_match_the_verdict():
    item = workloads.Item("xyXY", "xyXY", 4, 4, argv=("check", "xyXY"))
    text = "word: xyXY\nverdict: Unknown (planted)\n"
    assert judge("cli", item, (2, text)).failed == 0
    assert judge("cli", item, (0, text)).failed == 1


def test_traced_outputs_are_compared_with_the_untraced_reference(monkeypatch):
    item = loops_item("xyXY")
    outputs = iter([(json_report("xyXY", NOT),), (json_report("xyXY", UNKNOWN),)])
    monkeypatch.setattr(run, "process", lambda prog, workload, it: next(outputs))
    reference = run.Measurement()
    reference.run(None, "loops", [item], 0)
    assert reference.failed == 0
    traced = run.Measurement()
    traced.run(None, "loops", [item], 0, reference=reference.digests)
    assert traced.failed == 1 and "reference" in traced.problems[0]


def test_traced_run_on_the_package_reports_every_layer_metric(tmp_path):
    sys.path.insert(0, str(run.ROOT / "src"))
    samples = []
    prog = run.set_up(samples)
    assert len(samples) == run.SETUP_REPEATS
    small = [i for i in workloads.make("long", 0) if i.size_class == 2000]
    metrics, m, extra = run.traced(prog, "long", small, 0, tmp_path / "spans.tsv.gz")
    assert m.failed == 0 and extra["missing_entry_points"] == []
    assert set(metrics) == {name for name, _ in run.PER_LAYER}
    assert metrics["laurent.taylor.calls"] == 16
    metrics, m, _ = run.untraced(prog, "cli", workloads.make("cli", 0)[:40], 0, samples)
    assert m.failed == 0 and set(metrics) == {name for name, _ in run.END_TO_END}


def test_tail_percentile_needs_ten_samples_beyond():
    lat = [float(i) for i in range(1, 2001)]
    assert run.tail(lat, "loops") == (99.0, 1980.0, 20)
    assert run.tail(lat, "long") == (90.0, 1800.0, 200)


def test_benchmark_json_matches_the_runner():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WHY)
    assert all(w["why"] == workloads.WHY[w["name"]] for w in SPEC["workloads"])
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    )


def test_comparison_across_backends_is_invalid():
    def result(backend, value):
        return {"workload": "loops", "env": {"trace": 0, "kernel_backend": backend, "python": "3.11"},
                "metrics": {"words_per_s": {"value": value, "unit": "1/s"}}}

    same = compare.compare({("loops", 0): [result("python", 100.0)]},
                           {("loops", 0): [result("python", 50.0)]}, SPEC)
    assert any(line.startswith("WORSE") for line in same)
    mixed = compare.compare({("loops", 0): [result("python", 100.0)]},
                            {("loops", 0): [result("c", 1000.0)]}, SPEC)
    assert mixed[0].startswith("INVALID") and len(mixed) == 1


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""
