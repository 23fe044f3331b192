"""Benchmark of the twosquares verdict pipeline, end to end and per layer.

    python3 perfbench/run.py --workload loops|long|cli --seed N --seconds S --trace 0|1

Run it from a checkout of the repository: the package is imported from
the checkout's src/ directory, and nothing is installed or built.  One
process plays one closed-loop client: it sends the next word only after
the report of the previous one is rendered, and checks every report
against an answer key that does not use the code under test.

--trace 0 measures the end-to-end metrics with no instrumentation.
--trace 1 alternates untraced passes with traced passes that wrap each
layer's entry points (see tracer.py), and reports the per-layer metrics
and the tracing overhead; traced outputs must equal the untraced ones.

Results go to perfbench/out/ (a JSON result per run, and the spans of a
traced run); the last line of standard output is a JSON summary.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

import answer_key  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402

# (name, unit) of every metric, in the order they are printed.
END_TO_END = (
    ("words_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("decided_frac", "frac"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("words.parse.self_ms", "ms/word"),
    ("words.parse.us_per_letter", "us/letter"),
    ("words.parse.growth", "ratio"),
    ("kernel.mul.calls", "count/word"),
    ("kernel.mul.bytes", "B/word"),
    ("cover.lift_chain.self_ms", "ms/word"),
    ("cover.terms", "count/word"),
    ("laurent.collapse.self_ms", "ms/word"),
    ("laurent.taylor.calls", "count/word"),
    ("laurent.taylor.self_ms", "ms/word"),
    ("laurent.strip_units.self_ms", "ms/word"),
    ("laurent.strip_units.depth", "count/word"),
    ("laurent.strip_units.growth", "ratio"),
    ("obstructions.analyze.self_ms", "ms/word"),
    ("obstructions.settled_without_search_frac", "frac"),
    ("oracle.search.calls", "count/word"),
    ("oracle.candidates", "count/word"),
    ("oracle.hit_frac", "frac"),
    ("oracle.candidates_per_s", "1/s"),
    ("kernel.search_square_pair.self_ms", "ms/word"),
    ("cli.main.self_ms", "ms/word"),
    ("cli.render_text.self_ms", "ms/word"),
    ("cli.render_json.self_ms", "ms/word"),
    ("cli.output_bytes", "B/word"),
    ("cli.import_ms", "ms"),
    ("cli.process_ms", "ms"),
    ("trace.overhead_ms", "ms/word"),
)

SETUP_REPEATS = 3
CLI_PROCESS_REPEATS = 5
# The tail is reported at a fixed percentile per workload, so that a faster
# program (more samples per run) does not move the tail to a rarer
# percentile; it steps down only if fewer than 10 samples lie beyond it.
# loops has enough samples for p99.9, but there it read host hiccups, not
# the program (4.7 to 9.0 ms over five seeds); p99 lies inside the 240
# Unknown words that run the full search.
TAIL_PERCENTILE = {"loops": 99.0, "long": 90.0, "cli": 99.0}
PERCENTILE_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
WARM_UP = (("[x,y]", 5), ("[x^2,y]", 5), ("x^3yX^2yXY^2", 2))


class Program:
    """The modules of the package under test, imported from ROOT/src."""

    def __init__(self):
        self.twosquares = importlib.import_module("twosquares")
        origin = Path(self.twosquares.__file__).resolve()
        if ROOT / "src" not in origin.parents:
            raise ImportError(f"twosquares was imported from {origin}, not from {ROOT / 'src'}")
        self.words = importlib.import_module("twosquares.words")
        self.obstructions = importlib.import_module("twosquares.obstructions")
        self.cli = importlib.import_module("twosquares.cli")
        self.backend = self.twosquares.KERNEL_BACKEND


def process(prog: Program, workload: str, item: workloads.Item):
    """One word from expression to rendered report(s); the timed unit."""
    if workload == "cli":
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = prog.cli.main(list(item.argv))
        return code, out.getvalue()
    report = prog.obstructions.analyze(
        prog.words.parse(item.expr), depth=workloads.DEPTH, bound=item.bound
    )
    rendered = json.dumps(report.to_json(), indent=2)
    if workload == "loops":
        return (rendered,)
    return rendered, prog.cli.render_report(report)


def set_up(samples: list[float]) -> Program:
    """Import the package from scratch and warm it up, SETUP_REPEATS times.

    Each time is appended to samples; the last import is returned.  An
    untraced run sets up again after its passes, so that the median set-up
    time reflects the host at both ends of the run, not one moment of it.
    """
    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n == "twosquares" or n.startswith("twosquares.")]:
            del sys.modules[name]
        gc.collect()  # free the previous import, so that it does not count in peak_rss_mb
        t0 = time.perf_counter()
        prog = Program()
        for expr, bound in WARM_UP:
            item = workloads.Item(expr, "", 0, bound, argv=("check", "--bound", str(bound), expr))
            process(prog, "long", item)
            process(prog, "cli", item)
        samples.append(time.perf_counter() - t0)
    return prog


def check(workload: str, item: workloads.Item, outputs) -> tuple[str | None, list[str]]:
    """(verdict kind or None, problems) for one word's outputs."""
    if workload == "cli":
        code, text = outputs
        command = item.argv[0]
        if command == "check":
            read = answer_key.read_json_report if "json" in item.argv else answer_key.read_text_report
            word, kind, witness = read(text)
            want_code = 2 if kind == answer_key.UNKNOWN else 0
            problems = [] if code == want_code else [f"exit code {code} for {kind}"]
        else:
            problems = [] if code == 0 else [f"exit code {code}"]
            if command == "search":
                return None, problems + _search_problems(item, text)
            if text.startswith("word: "):
                problems += _word_problems(item, text.split("\n", 1)[0][len("word: "):])
            else:
                problems.append(f"{command} output does not start with the word")
            return None, problems
    else:
        word, kind, witness = answer_key.read_json_report(outputs[0])
        problems = []
        if workload == "long":
            if answer_key.read_text_report(outputs[1]) != (word, kind, witness):
                problems.append("text and JSON reports disagree")
    problems += _word_problems(item, word)
    problems += answer_key.verdict_problems(item.letters, kind, witness, item.expected, item.pinned)
    return kind, problems


def _word_problems(item, word_expr: str) -> list[str]:
    if answer_key.reduce_word(answer_key.expand(word_expr)) != item.letters:
        return ["the report's word differs from the benchmark's own reduction"]
    return []


def _search_problems(item, text: str) -> list[str]:
    if text.startswith("witness: a = "):
        a, rest = text[len("witness: a = "):].split(", b = ", 1)
        p = answer_key.witness_problem(item.letters, a, rest.split(";", 1)[0])
        return [p] if p else []
    return [] if text.startswith("inconclusive") else ["unreadable search output"]


def _digest(outputs) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for part in outputs:
        h.update(str(part).encode())
        h.update(b"\0")
    return h.digest()


class Measurement:
    """Latencies and checked outcomes of whole passes over the items."""

    def __init__(self):
        self.latencies = array("d")
        self.digests: list[bytes] = []  # per item, from the first pass
        self.kinds: list[str | None] = []  # per item, from the first pass
        self.failed = 0
        self.problems: list[str] = []
        self.passes = 0
        self.output_bytes = 0

    def run(self, prog, workload, items, seconds, reference=None, before_word=None):
        """Closed loop over whole passes until `seconds` of latency are measured
        (one pass when seconds is 0).

        The first pass is checked against the answer key; every later
        pass, and every pass of a run given a reference, must reproduce
        the reference outputs exactly.
        """
        busy = 0.0
        clock = time.perf_counter
        first = True
        while first or busy < seconds:
            first = False
            for i, item in enumerate(items):
                if before_word is not None:
                    before_word(i)
                error = None
                t0 = clock()
                try:
                    outputs = process(prog, workload, item)
                except Exception as exc:  # a failed word, counted and reported
                    outputs = None
                    error = f"{type(exc).__name__}: {exc}"
                dt = clock() - t0
                busy += dt
                self.latencies.append(dt)
                self._judge(workload, i, item, outputs, error, reference)
            self.passes += 1

    def _judge(self, workload, i, item, outputs, error, reference):
        if outputs is None:
            self._fail(item, [error])
            if self.passes == 0:
                self.digests.append(b"")
                self.kinds.append(None)
            return
        self.output_bytes += sum(len(str(o)) for o in outputs)
        digest = _digest(outputs)
        expected = reference[i] if reference is not None else (
            self.digests[i] if self.passes else None
        )
        if self.passes == 0:
            self.digests.append(digest)
            if reference is None:
                try:
                    kind, problems = check(workload, item, outputs)
                except (ValueError, KeyError, IndexError) as exc:
                    kind, problems = None, [f"unreadable output: {exc}"]
                self.kinds.append(kind)
                if problems:
                    self._fail(item, problems)
        if expected is not None and digest != expected:
            self._fail(item, ["output differs from the reference pass"])

    def _fail(self, item, problems):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{item.expr[:60]}: {'; '.join(problems)}")


def tail(latencies: list[float], workload: str) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it), nearest-rank."""
    ordered = sorted(latencies)
    n = len(ordered)
    ladder = [p for p in PERCENTILE_LADDER if p <= TAIL_PERCENTILE[workload]]
    for p in ladder:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10 or p == ladder[-1]:
            return p, ordered[rank - 1], n - rank


def probe_cli_process() -> tuple[float, float, list[str]]:
    """Median wall time of `python -m twosquares.cli check`, and import time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    process_s, import_us, problems = [], [], []
    for _ in range(CLI_PROCESS_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "twosquares.cli", "check", "[x,y]"],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=60,
        )
        process_s.append(time.perf_counter() - t0)
        if proc.returncode != 0 or "verdict: NotTwoSquares" not in proc.stdout:
            problems.append(f"cli process: exit {proc.returncode}, {proc.stdout[-80:]!r}")
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import twosquares.cli"],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=60,
        )
        import_us.append(_import_us(proc.stderr))
    return statistics.median(process_s) * 1e3, statistics.median(import_us) / 1e3, problems


def _import_us(stderr: str) -> int:
    """Cumulative import time of the top-level twosquares imports."""
    total = 0
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].startswith(" twosquares"):
            total += int(parts[1])
    return total


def untraced(prog, workload, items, seconds, setup_samples) -> tuple[dict, Measurement, dict]:
    m = Measurement()
    m.run(prog, workload, items, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    set_up(setup_samples)
    pct, tail_s, beyond = tail(m.latencies, workload)
    verdicts = [k for k in m.kinds if k is not None]
    metrics = {
        "words_per_s": len(m.latencies) / sum(m.latencies),
        "latency_p50_ms": statistics.median(m.latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "decided_frac": sum(k != answer_key.UNKNOWN for k in verdicts) / max(len(verdicts), 1),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "samples": len(m.latencies),
        "failed_frac": m.failed / len(m.latencies),
        "tally": {k: verdicts.count(k) for k in answer_key.KINDS},
    }
    return metrics, m, extra


def traced(prog, workload, items, seconds, spans_path) -> tuple[dict, Measurement, dict]:
    """Untraced and traced passes, alternating until `seconds` are measured.

    The first untraced pass is checked against the answer key; every
    traced pass must reproduce its outputs.  Alternating the two keeps the
    tracing overhead (traced minus untraced) clear of drifts in host speed.
    """
    reference = Measurement()
    tracer = Tracer()
    m = Measurement()
    word_item: list[int] = []

    def before_word(i):
        tracer.current_word = len(word_item)
        word_item.append(i)

    while True:
        reference.run(prog, workload, items, 0)
        tracer.install()
        try:
            m.run(prog, workload, items, 0, reference=reference.digests, before_word=before_word)
        finally:
            tracer.uninstall()
        if sum(m.latencies) + sum(reference.latencies) >= seconds:
            break
    metrics = layer_metrics(
        tracer,
        [items[i].size_class for i in word_item],
        [len(items[i].letters) for i in word_item],
    )
    metrics["cli.output_bytes"] = m.output_bytes / len(m.latencies)
    metrics["cli.import_ms"] = metrics["cli.process_ms"] = 0.0
    if workload == "cli":
        metrics["cli.process_ms"], metrics["cli.import_ms"], problems = probe_cli_process()
        for p in problems:
            m.failed += 1
            m.problems.append(p)
    overhead = statistics.fmean(m.latencies) - statistics.fmean(reference.latencies)
    metrics["trace.overhead_ms"] = overhead * 1e3
    tracer.write(spans_path)
    m.failed += reference.failed
    m.problems += reference.problems
    m.latencies += reference.latencies
    extra = {
        "untraced_words": len(reference.latencies),
        "traced_words": len(word_item),
        "spans": len(tracer.start),
        "trace_overhead_frac": overhead / statistics.fmean(reference.latencies),
        "missing_entry_points": tracer.missing,
        "spans_file": spans_path.name,
    }
    return metrics, m, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "twosquares" / "__init__.py").is_file():
        print(f"perfbench: no src/twosquares under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    setup_samples: list[float] = []
    prog = set_up(setup_samples)
    items = workloads.make(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, m, extra = traced(prog, args.workload, items, args.seconds, OUT_DIR / f"spans-{stem}.tsv.gz")
        units = dict(PER_LAYER)
    else:
        metrics, m, extra = untraced(prog, args.workload, items, args.seconds, setup_samples)
        units = dict(END_TO_END)
    result = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "env": {
            "kernel_backend": prog.backend,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
        },
        "correct": m.failed == 0,
        "attempted": len(m.latencies),
        "failed": m.failed,
        "passes": m.passes,
        "setup_samples_s": setup_samples,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        **extra,
        "problems": m.problems,
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")

    env = result["env"]
    print(f"workload {args.workload}  seed {args.seed}  backend {env['kernel_backend']}  "
          f"python {env['python']}  nproc {env['nproc']}  trace {args.trace}")
    for key, value in extra.items():
        print(f"  {key}: {value}")
    for k, u in units.items():
        print(f"  {k:44s} {metrics[k]:14.6g} {u}")
    for p in m.problems:
        print(f"  FAILED {p}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
