"""The figure runner: canonical workloads, the paper's tables, the simulator.

Each function here regenerates one of the paper's evaluation artifacts
(Table 1, Table 2, Figure 8, and the §3/§5 in-text claims) at a scale a
CPython host can run, and returns structured rows so that the
``bench_*.py`` pytest benchmarks beside this file can render or assert
on them.  Absolute numbers are host-dependent; the *shape* columns
(ratios, monotonicity, who-wins) are what EXPERIMENTS.md compares to
the paper.

It is also the command line for them (formerly ``repro bench`` and
``repro simulate``)::

    PYTHONPATH=src python benchmarks/figures.py realign -k 3 --emit-metrics m.json
    PYTHONPATH=src python benchmarks/figures.py simulate --length 300 -k 5 -P 16
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence as Seq

from repro.core.oldalgo import old_find_top_alignments
from repro.core.topalign import find_top_alignments
from repro.scoring.blosum import blosum62
from repro.scoring.exchange import ExchangeMatrix
from repro.scoring.gaps import GapPenalties
from repro.sequences.sequence import Sequence
from repro.sequences.workloads import pseudo_titin
from repro.simulate.cluster import AlignmentOracle, ClusterConfig, ClusterSimulator
from repro.simulate.machine import PENTIUM3, PENTIUM4, MachineModel
from repro.simulate.trace import TraceRecorder

@dataclass
class BenchTable:
    """A rendered experiment: header, rows, free-text notes."""

    title: str
    columns: list[str]
    rows: list[list[Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add(self, *values: Any) -> None:
        """Append one row (must match the column count)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def render(self) -> str:
        """Fixed-width text rendering, like the paper's tables."""
        def fmt(value: Any) -> str:
            if isinstance(value, float):
                return f"{value:.3g}"
            return str(value)

        table = [self.columns] + [[fmt(v) for v in row] for row in self.rows]
        widths = [max(len(r[c]) for r in table) for c in range(len(self.columns))]
        lines = [self.title, "-" * len(self.title)]
        for idx, row in enumerate(table):
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
            if idx == 0:
                lines.append("  ".join("-" * w for w in widths))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def default_scoring() -> tuple[ExchangeMatrix, GapPenalties]:
    """The scoring model every benchmark uses (BLOSUM62, open 8 / extend 1)."""
    return blosum62(), GapPenalties(8, 1)


def bench_sequence(length: int, *, seed: int = 1912) -> Sequence:
    """The canonical benchmark input: a pseudo-titin prefix."""
    return pseudo_titin(length, seed=seed)


def _timed(fn: Callable[[], Any]) -> tuple[float, Any]:
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


# -- Table 1 -----------------------------------------------------------------


def table1_rows(
    lengths: Seq[int] = (200, 300, 400, 500),
    k: int = 10,
    *,
    engine: str = "vector",
    seed: int = 1912,
) -> BenchTable:
    """Old vs new sequential runtimes over sequence length (Table 1).

    Paper (P3, k=50, lengths 1000–1800): speedups 106 -> 256, growing
    with length.  Here lengths are scaled to CPython and both
    algorithms share the same engine so the ratio isolates the
    algorithmic improvement.
    """
    table = BenchTable(
        "Table 1 — old vs new sequential algorithm",
        ["length", "old (s)", "new (s)", "speedup", "old aligns", "new aligns"],
    )
    table.notes.append(
        f"k={k} top alignments, engine={engine}; paper: k=50, lengths 1000-1800, "
        "speedups 106-256 growing with length"
    )
    for length in lengths:
        seq = bench_sequence(length, seed=seed)
        exchange, gaps = default_scoring()
        t_old, (old, old_stats) = _timed(
            lambda: old_find_top_alignments(seq, k, exchange, gaps, engine=engine)
        )
        t_new, (new, new_stats) = _timed(
            lambda: find_top_alignments(
                seq, k, exchange, gaps, engine=engine, group=1
            )
        )
        if [(a.r, a.score) for a in old] != [(a.r, a.score) for a in new]:
            raise AssertionError(
                f"old and new algorithms diverged at length {length}"
            )
        table.add(
            length,
            t_old,
            t_new,
            t_old / t_new if t_new > 0 else float("inf"),
            old_stats.alignments,
            new_stats.alignments,
        )
    return table


# -- Table 2 -----------------------------------------------------------------


def table2_rows(size: int = 300, *, scalar_size: int | None = None) -> BenchTable:
    """Engine-tier alignment times (Table 2).

    Paper (largest titin split): conventional 5.2 s/1 matrix; SSE
    3.0 s/4 (6.9x); SSE2 2.2 s/8 (9.8x on a P4).  Here: pure-Python
    scalar vs numpy vector vs 4- and 8-lane int16 batches.
    """
    from repro.simulate.calibrate import calibrate_local

    report = calibrate_local(size=size, scalar_size=scalar_size or max(size // 4, 60))
    table = BenchTable(
        "Table 2 — engine tiers (time to align / matrices per batch)",
        ["tier", "seconds", "matrices", "cells/s", "improvement"],
    )
    matrices = {"conventional": 1, "vector": 1, "sse": 4, "sse2": 8}
    for tier in ("conventional", "vector", "sse", "sse2"):
        table.add(
            tier,
            report.seconds[tier],
            matrices[tier],
            report.model.rates[tier],
            report.improvement(tier),
        )
    table.notes.append(
        "paper improvements: SSE 6.9x (P3) / 6.0x (P4), SSE2 9.8x (P4), "
        "both vs the compiled conventional kernel"
    )
    return table


# -- Figure 8 ----------------------------------------------------------------


def figure8_series(
    length: int = 360,
    ks: Seq[int] = (1, 2, 5, 10, 25),
    processors: Seq[int] = (2, 4, 8, 16, 32, 64, 128),
    *,
    machine: MachineModel = PENTIUM3,
    seed: int = 1912,
) -> dict[int, list[tuple[int, float, float]]]:
    """Speed improvement vs processor count per top-alignment target.

    Returns ``{k: [(P, speedup_vs_sequential, speedup_vs_sse), ...]}``.
    The sequential baseline runs the conventional tier (the paper's
    Figure 8 y-axis); the second ratio is against a one-CPU SSE run
    (the paper's "123x with respect to the SSE version").
    """
    oracle = AlignmentOracle(bench_sequence(length, seed=seed), *default_scoring())
    series: dict[int, list[tuple[int, float, float]]] = {}
    for k in ks:
        base_conv = _sequential(oracle, k, machine, "conventional").makespan
        base_sse = _sequential(oracle, k, machine, "sse").makespan
        series[k] = []
        for P in processors:
            result = ClusterSimulator(
                oracle, ClusterConfig(processors=P, machine=machine, tier="sse")
            ).run(k)
            series[k].append(
                (P, base_conv / result.makespan, base_sse / result.makespan)
            )
    return series


def _sequential(oracle: AlignmentOracle, k: int, machine: MachineModel, tier: str):
    """The one-CPU run every speed improvement is measured against."""
    config = ClusterConfig(
        processors=1, machine=machine, tier=tier, dedicated_master=False
    )
    return ClusterSimulator(oracle, config).run(k)


# -- §3 realignment-avoidance claim ------------------------------------------


def realignment_rows(
    lengths: Seq[int] = (200, 300, 400),
    k: int = 10,
    *,
    seed: int = 1912,
) -> BenchTable:
    """Fraction of realignments the ordering heuristic avoids (§3: 90–97 %)."""
    table = BenchTable(
        "§3 — realignments avoided by the best-first queue",
        ["length", "k", "performed", "full rescan", "avoided %"],
    )
    for length in lengths:
        seq = bench_sequence(length, seed=seed)
        exchange, gaps = default_scoring()
        _, stats = find_top_alignments(
            seq, k, exchange, gaps, engine="vector", group=1
        )
        naive = (k - 1) * (len(seq) - 1)
        avoided = 100.0 * (1.0 - stats.realignments / naive) if naive else 0.0
        table.add(length, k, stats.realignments, naive, avoided)
    table.notes.append("paper: the heuristic avoids 90-97 % of realignments")
    return table


# -- the command line --------------------------------------------------------


def _simulate(args: argparse.Namespace) -> None:
    """One simulated DAS-2 run against its one-CPU baseline (Figure 8 style)."""
    machine = PENTIUM3 if args.machine == "pentium3" else PENTIUM4
    k = args.top_alignments or 5
    oracle = AlignmentOracle(bench_sequence(args.length or 300), *default_scoring())
    base = _sequential(oracle, k, machine, "conventional")
    recorder = TraceRecorder()
    result = ClusterSimulator(
        oracle,
        ClusterConfig(processors=args.processors, machine=machine, tier=args.tier),
        trace=recorder,
    ).run(k)
    print(
        f"pseudo-titin {args.length or 300} aa, k={k}, "
        f"P={args.processors} ({machine.name}, {args.tier} tier)"
    )
    print(f"  simulated makespan:     {result.makespan:.4f} s")
    print(f"  sequential baseline:    {base.makespan:.4f} s (conventional tier)")
    print(f"  speed improvement:      {base.makespan / result.makespan:.1f}x")
    print(f"  alignments executed:    {result.alignments_executed}")
    report = recorder.report(result.makespan, n_workers=args.processors - 1)
    print(f"  mean worker utilisation {report.mean_utilisation:.1%}, "
          f"traceback share {report.traceback_fraction:.1%}")
    if args.gantt:
        print(report.gantt())


def main(argv: Seq[str] | None = None) -> int:
    """Regenerate one artifact, or run the cluster simulator once."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "artifact", choices=["table1", "table2", "figure8", "realign", "simulate"]
    )
    parser.add_argument("--length", type=int, default=None)
    parser.add_argument("-k", "--top-alignments", type=int, default=None)
    parser.add_argument(
        "--emit-metrics", default=None, metavar="PATH",
        help="enable repro.obs collection and dump the registry snapshot "
        "+ trace trees as JSON after the run",
    )
    simulate = parser.add_argument_group("simulate")
    simulate.add_argument("-P", "--processors", type=int, default=16)
    simulate.add_argument("--machine", default="pentium3", choices=["pentium3", "pentium4"])
    simulate.add_argument("--tier", default="sse")
    simulate.add_argument("--gantt", action="store_true", help="print a CPU timeline")
    args = parser.parse_args(argv)

    if args.emit_metrics:
        from repro import obs

        obs.enable()
    k = {"k": args.top_alignments} if args.top_alignments else {}
    if args.artifact == "table1":
        print(table1_rows(**k).render())
    elif args.artifact == "table2":
        print(table2_rows(size=args.length or 300).render())
    elif args.artifact == "realign":
        print(realignment_rows(**k).render())
    elif args.artifact == "simulate":
        _simulate(args)
    else:
        series = figure8_series(
            length=args.length or 360,
            ks=(args.top_alignments,) if args.top_alignments else (1, 2, 5, 10, 25),
        )
        print("Figure 8 — speed improvement vs processors (simulated DAS-2)")
        for k_top, points in sorted(series.items()):
            row = "  ".join(f"P={p}:{s:.0f}" for p, s, _ in points)
            print(f"k={k_top:3d}  {row}")
    if args.emit_metrics:
        obs.write_snapshot(args.emit_metrics)
        print(f"wrote {args.emit_metrics}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
