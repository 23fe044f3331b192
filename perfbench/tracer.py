"""Spans and counters around the public entry points of each layer.

The tracer wraps the entry points in place (module attributes and class
methods) while a traced pass runs, and restores them afterwards; the
package's source is not touched.  Every call of a wrapped entry point
records a span (layer name, start, end, parent span, word id) in flat
arrays; kernel.mul is only counted.  Self times are computed from the
spans at the end: a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict

# (layer, module, attribute path, result hook).  A missing entry point is
# skipped and listed in Tracer.missing, so a refactor of the package
# degrades the per-layer report instead of breaking the benchmark.
ENTRY_POINTS = (
    ("words.parse", "twosquares.words", "parse", None),
    ("cover.lift_chain", "twosquares.cover", "lift_chain", "_on_lift"),
    ("laurent.collapse", "twosquares.laurent", "Laurent2.substitute_x1", None),
    ("laurent.collapse", "twosquares.laurent", "Laurent2.substitute_y1", None),
    ("laurent.taylor", "twosquares.laurent", "Laurent1.taylor_coeff", None),
    ("laurent.strip_units", "twosquares.laurent", "Laurent2.strip_units", "_on_strip"),
    ("obstructions.analyze", "twosquares.obstructions", "analyze", "_on_analyze"),
    ("oracle.search", "twosquares.oracle", "search_with_stats", "_on_search"),
    ("kernel.search_square_pair", "twosquares.kernel", "search_square_pair", None),
    ("cli.main", "twosquares.cli", "main", None),
    ("cli.render_text", "twosquares.cli", "render_report", None),
    ("cli.render_json", "twosquares.obstructions", "ObstructionReport.to_json", None),
    ("cli.render_json", "twosquares.oracle", "SearchOutcome.to_json", None),
    ("cli.render_json", "twosquares.cover", "ChainPair.to_json", None),
    ("cli.render_json", "json", "dumps", None),
)


class Tracer:
    def __init__(self):
        self.layers: list[str] = []
        self.layer_id: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.word = array("i")
        self.stack = [-1]
        self.current_word = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def install(self):
        for layer, modname, path, hook in ENTRY_POINTS:
            owner = sys.modules.get(modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{modname}:{path}")
                continue
            wrapper = self._span(layer, original, getattr(self, hook) if hook else None)
            self._patch(owner, attr, original, wrapper, rebind=not outer)
        kernel = sys.modules.get("twosquares.kernel")
        if kernel is None or not hasattr(kernel, "mul"):
            self.missing.append("twosquares.kernel:mul")
        else:
            self._patch(kernel, "mul", kernel.mul, self._mul_counter(kernel.mul), rebind=True)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, original, wrapper, rebind):
        """Replace owner.attr and, for functions, every package name bound to it.

        The module that defines a re-exported function keeps its own
        binding: the pure kernel's search calls its module-global mul,
        which is inside the kernel, not a call into it.
        """
        targets = [(owner, attr)]
        home = getattr(original, "__module__", None)
        if rebind:
            for name, mod in list(sys.modules.items()):
                if name == home and mod is not owner:
                    continue
                if name == "twosquares" or name.startswith("twosquares."):
                    for key, value in list(vars(mod).items()):
                        if value is original and (mod, key) != (owner, attr):
                            targets.append((mod, key))
        for obj, key in targets:
            self._undo.append((obj, key, getattr(obj, key)))
            setattr(obj, key, wrapper)

    def _span(self, layer, fn, on_result):
        if layer not in self.layer_id:
            self.layer_id[layer] = len(self.layers)
            self.layers.append(layer)
        lid = self.layer_id[layer]
        clock = time.perf_counter
        name, start, end = self.name, self.start, self.end
        parent, word, stack = self.parent, self.word, self.stack

        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(lid)
            parent.append(stack[-1])
            word.append(self.current_word)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _mul_counter(self, fn):
        counts = self.counts

        def mul(u, v):
            counts["kernel.mul.calls"] += 1
            counts["kernel.mul.bytes"] += len(u) + len(v)
            return fn(u, v)

        return mul

    # -- result hooks -----------------------------------------------------

    def _on_lift(self, chain):
        self.counts["cover.terms"] += len(chain.P.items()) + len(chain.Q.items())

    def _on_strip(self, result):
        k, l, _ = result
        self.counts["laurent.strip_units.depth"] += k + l

    def _on_analyze(self, report):
        self.counts["analyzed"] += 1
        if report.search is None and report.verdict.kind == "NotTwoSquares":
            self.counts["settled_without_search"] += 1

    def _on_search(self, outcome):
        self.counts["oracle.candidates"] += outcome.checked
        self.counts["oracle.hits"] += outcome.witness is not None

    # -- reading ----------------------------------------------------------

    def self_times(self) -> array:
        own = array("d", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def write(self, path):
        """Spans as gzipped TSV, times in microseconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("span\tlayer\tstart_us\tend_us\tparent\tword\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.layers[self.name[i]]}\t{(self.start[i] - t0) * 1e6:.1f}\t"
                    f"{(self.end[i] - t0) * 1e6:.1f}\t{self.parent[i]}\t{self.word[i]}\n"
                )


def layer_metrics(tracer: Tracer, word_class: list[int], word_letters: list[int]) -> dict[str, float]:
    """Per-layer figures from the spans and counters of a traced phase.

    word_class and word_letters give, per traced word id, the size class
    and letter count of the word; times and counts are per word.
    """
    words = len(word_class)
    own = tracer.self_times()
    self_s = defaultdict(float)
    calls = defaultdict(int)
    wall_s = defaultdict(float)
    by_class = defaultdict(float)  # (layer, class) -> self seconds
    letters_by_class = defaultdict(lambda: defaultdict(int))  # layer -> class -> letters
    for i, t in enumerate(own):
        layer = tracer.layers[tracer.name[i]]
        self_s[layer] += t
        calls[layer] += 1
        wall_s[layer] += tracer.end[i] - tracer.start[i]
        if layer in ("words.parse", "laurent.strip_units"):
            w = tracer.word[i]
            by_class[layer, word_class[w]] += t
            letters_by_class[layer][word_class[w]] += word_letters[w]

    def per_letter_us(layer, cls):
        return by_class[layer, cls] * 1e6 / letters_by_class[layer][cls]

    def growth(layer):
        classes = sorted(c for c, n in letters_by_class[layer].items() if c and n)
        if len(classes) < 2:
            return 0.0
        return per_letter_us(layer, classes[-1]) / per_letter_us(layer, classes[0])

    c = tracer.counts
    parse_letters = sum(letters_by_class["words.parse"].values())
    search_s = wall_s["kernel.search_square_pair"]
    m = {
        "words.parse.self_ms": self_s["words.parse"] * 1e3 / words,
        "words.parse.us_per_letter": self_s["words.parse"] * 1e6 / parse_letters if parse_letters else 0.0,
        "words.parse.growth": growth("words.parse"),
        "kernel.mul.calls": c["kernel.mul.calls"] / words,
        "kernel.mul.bytes": c["kernel.mul.bytes"] / words,
        "cover.lift_chain.self_ms": self_s["cover.lift_chain"] * 1e3 / words,
        "cover.terms": c["cover.terms"] / words,
        "laurent.collapse.self_ms": self_s["laurent.collapse"] * 1e3 / words,
        "laurent.taylor.calls": calls["laurent.taylor"] / words,
        "laurent.taylor.self_ms": self_s["laurent.taylor"] * 1e3 / words,
        "laurent.strip_units.self_ms": self_s["laurent.strip_units"] * 1e3 / words,
        "laurent.strip_units.depth": c["laurent.strip_units.depth"] / words,
        "laurent.strip_units.growth": growth("laurent.strip_units"),
        "obstructions.analyze.self_ms": self_s["obstructions.analyze"] * 1e3 / words,
        "obstructions.settled_without_search_frac": (
            c["settled_without_search"] / c["analyzed"] if c["analyzed"] else 0.0
        ),
        "oracle.search.calls": calls["oracle.search"] / words,
        "oracle.candidates": c["oracle.candidates"] / words,
        "oracle.hit_frac": c["oracle.hits"] / calls["oracle.search"] if calls["oracle.search"] else 0.0,
        "oracle.candidates_per_s": c["oracle.candidates"] / search_s if search_s else 0.0,
        "kernel.search_square_pair.self_ms": self_s["kernel.search_square_pair"] * 1e3 / words,
        "cli.main.self_ms": self_s["cli.main"] * 1e3 / words,
        "cli.render_text.self_ms": self_s["cli.render_text"] * 1e3 / words,
        "cli.render_json.self_ms": self_s["cli.render_json"] * 1e3 / words,
    }
    return m
