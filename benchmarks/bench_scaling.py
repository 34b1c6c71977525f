"""How one search's time, work and memory grow with the sequence length.

Runs the default search (``find_top_alignments``: lanes engine, group 8,
block bounds) on prefixes of the titin-like corpus the end-to-end
``titin_find`` workload uses (corpus 1912), BLOSUM62, gaps 8/1, k = 20,
one fresh subprocess per length so every peak RSS is that length's own.
Per length it reports wall, cells, peak RSS, the MiB each store holds
when the search ends (saved rows, resident bottom rows, override
triangle), the splits whose saved rows were dropped and the bottom rows
refilled, and a digest of the tops; then the fitted exponents of wall
and cells in m.

    PYTHONPATH=src python benchmarks/bench_scaling.py
    PYTHONPATH=src python benchmarks/bench_scaling.py --sizes 3200 --repeat 3
    python benchmarks/bench_scaling.py --src ../other-checkout/src --sizes 3200

``--src`` runs another checkout's package (an A/B against an older
commit: counters it does not have read 0).  ``--check`` arms
``REPRO_CHECK_INVARIANTS=1`` in the children, which asserts after every
recorded fill that each store is within its share of ``STATE_BYTES``
(wall then includes the checks).  ``--json`` writes every run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SIZES = (400, 800, 1600, 3200)
CORPUS = 1912
K = 20


def _child(m: int) -> dict:
    """One search at length ``m``, in this process."""
    import resource
    import time

    sys.path.insert(0, str(HERE / "e2e"))
    from inputs import titin_records

    from repro.core import TopAlignmentState, find_top_alignments
    from repro.scoring import GapPenalties, blosum62
    from repro.sequences import PROTEIN, Sequence

    [(_, text)] = titin_records(CORPUS, m)
    sequence = Sequence(text, PROTEIN, id="titin")
    exchange, gaps = blosum62(), GapPenalties(8.0, 1.0)
    started = time.perf_counter()
    state = TopAlignmentState(sequence, exchange, gaps)
    tops, stats = find_top_alignments(sequence, K, exchange, gaps, state=state)
    wall = time.perf_counter() - started
    key = [(a.r, a.score, a.pairs) for a in tops]
    triangle = state.triangle
    flags = getattr(triangle, "_flags", None)
    return {
        "m": m,
        "wall_s": wall,
        "cells": stats.cells,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "saved_rows_bytes": sum(s.nbytes for _, s in state.snapshots.values()),
        "bottom_rows_bytes": state.bottom_rows.nbytes,
        # Sparse: one 8-byte column per marked pair, set overhead aside.
        "triangle_bytes": flags.nbytes if flags is not None else 8 * triangle.marked_count,
        "triangle": type(triangle).__name__,
        "splits_dropped": getattr(state, "snapshots_dropped", 0),
        "rows_refilled": getattr(state.bottom_rows, "refills", 0),
        "tops": hashlib.sha256(repr(key).encode()).hexdigest()[:16],
    }


def _run(m: int, src: Path, check: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("REPRO_CHECK_INVARIANTS", None)
    if check:
        env["REPRO_CHECK_INVARIANTS"] = "1"
    done = subprocess.run(
        [sys.executable, __file__, "--child", str(m)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def _exponent(runs: list[dict], field: str) -> float:
    """Least-squares slope of log(field) against log(m)."""
    m = np.log([r["m"] for r in runs])
    return float(np.polyfit(m, np.log([r[field] for r in runs]), 1)[0])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--repeat", type=int, default=1, help="runs per size")
    parser.add_argument("--src", type=Path, default=HERE.parent / "src")
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--json", type=Path, help="write every run here")
    parser.add_argument("--child", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        print(json.dumps(_child(args.child)))
        return 0

    runs, medians = [], []
    header = (  # bytes in MiB
        f"{'m':>5} {'wall s':>7} {'cells':>13} {'RSS':>7} {'saved':>9} "
        f"{'rows':>8} {'triangle':>8} {'dropped':>7} {'refilled':>8}  tops"
    )
    print(header)
    for m in args.sizes:
        these = [_run(m, args.src.resolve(), args.check) for _ in range(args.repeat)]
        runs += these
        for run in these:
            print(
                f"{m:>5} {run['wall_s']:>7.2f} {run['cells']:>13,} "
                f"{run['peak_rss_mb']:>7.1f} {run['saved_rows_bytes'] / 2**20:>9.2f} "
                f"{run['bottom_rows_bytes'] / 2**20:>8.2f} "
                f"{run['triangle_bytes'] / 2**20:>8.2f} {run['splits_dropped']:>7} "
                f"{run['rows_refilled']:>8}  {run['tops']}"
            )
        if len({run["tops"] for run in these}) != 1:
            raise SystemExit(f"m={m}: runs disagree on the tops")
        medians.append(
            {
                "m": m,
                "wall_s": statistics.median(r["wall_s"] for r in these),
                "cells": these[0]["cells"],
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in these),
            }
        )
        if args.repeat > 1:
            med = medians[-1]
            print(
                f"{m:>5} median of {args.repeat}: wall {med['wall_s']:.2f} s, "
                f"peak RSS {med['peak_rss_mb']:.1f} MiB"
            )
    if len(medians) > 1:
        print(
            f"fitted exponents in m: wall {_exponent(medians, 'wall_s'):.2f}, "
            f"cells {_exponent(medians, 'cells'):.2f}"
        )
    if args.json:
        args.json.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
