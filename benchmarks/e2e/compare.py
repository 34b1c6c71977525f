#!/usr/bin/env python3
"""Compare two sets of benchmark runs, or show the spread of one.

    python benchmarks/e2e/compare.py A/ B/    # verdict per workload x metric
    python benchmarks/e2e/compare.py A/       # run-to-run spread against the bounds

A directory holds the ``result-<workload>-untraced-s<seed>.json`` files
of any number of ``run.py --out`` runs; each file is one run and gives
one value per end-to-end metric.  ``A`` is the base (the parent
commit), ``B`` the change.  Bounds and directions come from
``BENCHMARK.json``; the rules are the choosing-metrics guide's:

* **worse** — B's median is worse than A's by more than the bound, and
  A's own spread (quartile distance over median) is within the bound or
  every B run is worse than every A run;
* **unresolved** — the spread is wider than the bound (or hides a loss
  beyond the bound) and B's runs are not all better than A's;
* **better** — at least ten pairs, B wins nine tenths of them, and the
  medians differ by more than A's quartile distance;
* **same** — otherwise.

Exit status 1 on any *worse* (two directories) or any spread beyond its
bound (one directory).
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from stats import quartiles

REPO_ROOT = Path(__file__).resolve().parents[2]

Runs = dict[str, dict[str, list[float]]]


def load_runs(directory: Path) -> Runs:
    """workload → metric → one value per run, in file-name order."""
    runs: Runs = defaultdict(lambda: defaultdict(list))
    for path in sorted(directory.glob("result-*-untraced-*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        for name, metric in result["end_to_end"].items():
            runs[result["workload"]][name].append(metric["value"])
    return runs


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # sign * value: larger is worse
    median_a, median_b = statistics.median(a), statistics.median(b)
    loss = sign * (median_b - median_a) / median_a
    q1, q3 = quartiles(a)
    wide = (q3 - q1) / median_a > bound
    worse_a, worse_b = [sign * x for x in a], [sign * x for x in b]
    all_worse = min(worse_b) > max(worse_a)
    all_better = max(worse_b) < min(worse_a)
    pairs = list(zip(worse_a, worse_b))
    wins = sum(1 for x, y in pairs if y < x)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and abs(median_b - median_a) > q3 - q1:
        return "better"
    if loss > bound and (not wide or all_worse):
        return "worse"
    if (loss > bound or wide) and not all_better:
        return "unresolved"
    return "same"


def _row(values: list[float]) -> str:
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):>10.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__)
        return 2
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base = load_runs(Path(argv[0]))
    status = 0
    if len(argv) == 1:
        print(f"{'workload':<16s} {'metric':<12s} {'median [q1, q3] n':<38s} spread  bound")
        for workload, by_metric in base.items():
            for name, values in by_metric.items():
                share, bound = spread(values), metrics[name]["bound"]
                flag = ""
                # setup_s is exempt: the driver only compares its medians.
                if share > bound and name != "setup_s":
                    flag, status = "  BEYOND BOUND", 1
                elif share > bound / 3:
                    flag = "  above a third of the bound"
                print(
                    f"{workload:<16s} {name:<12s} {_row(values):<38s} "
                    f"{share:6.3f} {bound:6.2f}{flag}"
                )
        return status
    change = load_runs(Path(argv[1]))
    print(f"{'workload':<16s} {'metric':<12s} {'A (base)':<38s} {'B':<38s} B/A     verdict")
    for workload, by_metric in base.items():
        for name, a in by_metric.items():
            b = change.get(workload, {}).get(name)
            if not b:
                continue
            m = metrics[name]
            result = verdict(a, b, m["better"], m["bound"])
            status = status or int(result == "worse")
            ratio = statistics.median(b) / statistics.median(a)
            print(
                f"{workload:<16s} {name:<12s} {_row(a):<38s} {_row(b):<38s} "
                f"{ratio:6.3f}  {result}"
            )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
