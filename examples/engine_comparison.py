#!/usr/bin/env python
"""Compare the alignment-engine tiers on this machine (Table 2, locally).

Times the four tiers of the reproduction on identical work and prints
a Table 2-style report:

* ``conventional`` — pure-Python scalar loop (the paper's non-SIMD
  baseline),
* ``vector``       — numpy row-vectorised, one matrix at a time,
* ``sse``          — 4 neighbouring matrices per lockstep int16 batch,
* ``sse2``         — 8 matrices per batch.

Also demonstrates that all tiers produce bit-identical scores, whatever
work type the lane engine is asked for (it reports the one it used).

Usage::

    python examples/engine_comparison.py [size]
"""

import sys

import numpy as np

from repro.align import ENGINE_NAMES, AlignmentProblem, LanesEngine, get_engine
from repro.scoring import GapPenalties, blosum62
from repro.sequences import pseudo_titin
from repro.simulate import PENTIUM3, PENTIUM4, calibrate_local


def correctness_demo(size: int) -> None:
    seq = pseudo_titin(2 * size, seed=3)
    problem = AlignmentProblem(
        seq.codes[:size], seq.codes[size:], blosum62(), GapPenalties(8, 1)
    )
    # The closed engine table by name (lanes defaults to int32 work
    # rows), plus the lane engine asked for the paper's shorts and for
    # the float64 conformance mode, as instances.
    engines = {name: get_engine(name) for name in ENGINE_NAMES}
    for dtype in ("int16", "float64"):
        engines[f"lanes x8 {dtype}"] = LanesEngine(lanes=8, dtype=dtype)
    rows = {name: engine.last_row(problem) for name, engine in engines.items()}
    reference = rows.pop("scalar")
    for name, row in rows.items():
        assert np.array_equal(row, reference), name
    used = ", ".join(e.describe() for e in engines.values() if e.name == "lanes")
    print(
        f"correctness: all engines agree bit-for-bit on a "
        f"{size}x{size} BLOSUM62 matrix (best score {reference.max():g}); "
        f"lane work types used: {used}\n"
    )


def timing_report(size: int) -> None:
    report = calibrate_local(size=size, scalar_size=max(size // 3, 60))
    print(f"tier           cells/s      vs conventional   (matrix side ~{size})")
    for tier in ("conventional", "vector", "sse", "sse2"):
        rate = report.model.rates[tier]
        print(
            f"  {tier:<12} {rate:>12,.0f}   {report.improvement(tier):>8.1f}x"
        )
    print(
        "\npaper (compiled C): SSE 6.9x on a Pentium III, 6.0x/9.8x (SSE/SSE2)"
        "\non a Pentium 4.  The CPython factors are far larger because the"
        "\nconventional tier pays interpreter overhead per matrix cell, while"
        "\nthe batched tiers amortise it across a whole row of lanes — the"
        "\nsame amortisation argument the paper makes for its superlinear"
        "\nSIMD speedups, exaggerated by the interpreter."
    )
    print(
        f"\ncalibrated paper models for the simulator:"
        f"\n  Pentium III: sse {PENTIUM3.improvement('sse'):.1f}x"
        f"\n  Pentium 4:   sse {PENTIUM4.improvement('sse'):.1f}x, "
        f"sse2 {PENTIUM4.improvement('sse2'):.1f}x"
    )


if __name__ == "__main__":
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 240
    correctness_demo(min(size, 160))
    timing_report(size)
