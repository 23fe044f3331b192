"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py --base A/*.json --head B/*.json

Result files (perfbench/out/*.json, copied aside per commit) are grouped
by workload and trace mode.  For each metric the median of each side is
shown with the change as a share of the base median and, for end-to-end
metrics, whether that change stays within the bound fixed in
BENCHMARK.json.  Results measured on different kernel backends or Python
versions are not comparable: such a group is marked INVALID and gets no
verdict, neither a gain nor a loss.  The exit code is 1 if any group is
invalid or any end-to-end metric is worse than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(paths):
    groups = defaultdict(list)
    for p in paths:
        r = json.loads(Path(p).read_text())
        groups[r["workload"], r["env"]["trace"]].append(r)
    return groups


def environment(results) -> set[tuple[str, str]]:
    return {(r["env"]["kernel_backend"], r["env"]["python"]) for r in results}


def compare(base, head, spec) -> list[str]:
    """Report lines; a line starting with INVALID or WORSE is a failure."""
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lines = []
    for key in sorted(set(base) | set(head)):
        workload, trace = key
        b, h = base.get(key, []), head.get(key, [])
        title = f"{workload} trace={trace}: {len(b)} base runs, {len(h)} head runs"
        if not b or not h:
            lines.append(f"INVALID {title}: one side has no runs")
            continue
        envs = environment(b) | environment(h)
        if len(envs) > 1:
            lines.append(f"INVALID {title}: backends/pythons differ {sorted(envs)}")
            continue
        lines.append(title)
        for name in b[0]["metrics"]:
            mb = statistics.median(r["metrics"][name]["value"] for r in b)
            mh = statistics.median(r["metrics"][name]["value"] for r in h)
            change = (mh - mb) / mb if mb else 0.0
            worse = -change if better.get(name) == "higher" else change
            verdict = ""
            if name in bound:
                verdict = "WORSE than bound" if worse > bound[name] else "within bound"
            status = "WORSE" if verdict.startswith("WORSE") else "     "
            lines.append(f"{status}  {name:44s} {mb:14.6g} -> {mh:14.6g} ({change:+.1%}) {verdict}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--head", nargs="+", required=True)
    args = ap.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    lines = compare(load(args.base), load(args.head), spec)
    print("\n".join(lines))
    return 1 if any(line.startswith(("INVALID", "WORSE")) for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main())
