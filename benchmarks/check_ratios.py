#!/usr/bin/env python
"""CI ratio gate: the default configuration is the fast one.

Runs the end-to-end benchmark's traced pass on the two workloads that
pin the kernel from both sides — ``titin_find`` (nothing can prune) and
``dna_scan_dense`` (the prune gates fire) — and checks same-run ratios,
which hold on any machine where an absolute cells/s baseline does not:

* ``core.lattice.best_over_default >= 0.90`` — no knob setting beats the
  defaults by more than 10 %;
* ``align.gate_overhead.lanes_g8 <= 1.15`` — prune gates that cannot
  fire cost the lockstep kernel (almost) nothing;
* the run itself is ``correct`` (golden keys, self-checks, no failures).

    python benchmarks/check_ratios.py [--seconds 5] [--workload W ...]
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "e2e" / "run.py"
WORKLOADS = ("titin_find", "dna_scan_dense")
#: metric -> (comparison, bound)
GATES = {
    "core.lattice.best_over_default": (">=", 0.90),
    "align.gate_overhead.lanes_g8": ("<=", 1.15),
}


def check(result: dict) -> list[str]:
    """Failure messages for one workload's ``--trace 1`` result line."""
    failures = []
    if not result.get("correct") or result.get("failed"):
        failures.append(
            f"run not correct ({result.get('failed')} of "
            f"{result.get('attempted')} failed)"
        )
    for name, (op, bound) in GATES.items():
        value = result["metrics"][name]["value"]
        ok = value >= bound if op == ">=" else value <= bound
        if not ok:
            failures.append(f"{name} = {value:.3f}, want {op} {bound}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)
    failed = False
    for workload in args.workload or WORKLOADS:
        done = subprocess.run(
            [
                sys.executable, str(RUN), "--workload", workload,
                "--trace", "1", "--seconds", str(args.seconds),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = done.stdout.strip().splitlines()
        if not lines:
            print(f"{workload}: FAIL benchmark printed nothing (exit {done.returncode})")
            failed = True
            continue
        result = json.loads(lines[-1])
        failures = check(result)
        for name in GATES:
            print(f"{workload}: {name} = {result['metrics'][name]['value']:.3f}")
        for failure in failures:
            print(f"{workload}: FAIL {failure}")
        failed = failed or bool(failures)
    print("ratio gate:", "FAIL" if failed else "OK")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
