"""Experiment harness: canonical workloads, timing, table rendering.

Each function here regenerates one of the paper's evaluation artifacts
(Table 1, Table 2, Figure 8, and the §3/§5 in-text claims) at a scale a
CPython host can run, and returns structured rows so that both the
pytest benchmarks and the example scripts can render or assert on them.
Absolute numbers are host-dependent; the *shape* columns (ratios,
monotonicity, who-wins) are what EXPERIMENTS.md compares to the paper.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence as Seq

from ..core.oldalgo import old_find_top_alignments
from ..core.topalign import find_top_alignments
from ..scoring.blosum import blosum62
from ..scoring.exchange import ExchangeMatrix
from ..scoring.gaps import GapPenalties
from ..sequences.sequence import Sequence
from ..sequences.workloads import pseudo_titin
from ..simulate.cluster import AlignmentOracle, ClusterConfig, ClusterSimulator
from ..simulate.machine import PENTIUM3, MachineModel

__all__ = [
    "BenchTable",
    "default_scoring",
    "bench_sequence",
    "table1_rows",
    "table2_rows",
    "figure8_series",
    "realignment_rows",
    "batched_report",
    "batched_rows",
    "index_report",
    "index_rows",
    "pruning_report",
    "pruning_rows",
]


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
    from ..simulate.calibrate import calibrate_local

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
    seq = bench_sequence(length, seed=seed)
    exchange, gaps = default_scoring()
    oracle = AlignmentOracle(seq, exchange, gaps)
    kmax = max(ks)
    base_conv: dict[int, float] = {}
    base_sse: dict[int, float] = {}
    for k in sorted(ks):
        base_conv[k] = ClusterSimulator(
            oracle,
            ClusterConfig(
                processors=1,
                machine=machine,
                tier="conventional",
                dedicated_master=False,
            ),
        ).run(k).makespan
        base_sse[k] = ClusterSimulator(
            oracle,
            ClusterConfig(
                processors=1, machine=machine, tier="sse", dedicated_master=False
            ),
        ).run(k).makespan
    del kmax

    series: dict[int, list[tuple[int, float, float]]] = {k: [] for k in ks}
    for k in ks:
        for P in processors:
            result = ClusterSimulator(
                oracle,
                ClusterConfig(processors=P, machine=machine, tier="sse"),
            ).run(k)
            series[k].append(
                (P, base_conv[k] / result.makespan, base_sse[k] / result.makespan)
            )
    return series


# -- Speculative lane-batched driver -----------------------------------------


def batched_report(
    length: int = 240,
    k: int = 10,
    groups: Seq[int] = (1, 4, 8),
    *,
    engine: str = "lanes",
    seed: int = 1912,
) -> dict[str, Any]:
    """Throughput and waste of the speculative batched driver vs G=1.

    Runs the reference vector engine sequentially, then the lockstep
    ``engine`` at every G in ``groups`` (G=1 is always included as the
    speedup baseline), asserting along the way that each configuration
    returns bit-identical top alignments.  Returns a JSON-ready dict —
    the payload ``repro bench batched --json`` and the CI smoke job
    write as ``BENCH_batched.json``.
    """
    from ..core.topalign import find_top_alignments

    seq = bench_sequence(length, seed=seed)
    exchange, gaps = default_scoring()
    configs = [("vector", 1)]
    for g in sorted(set(groups) | {1}):
        configs.append((engine, g))

    rows: list[dict[str, Any]] = []
    reference: list[tuple[int, float, tuple]] | None = None
    baseline_rate = 0.0
    for eng, g in configs:
        tops, stats = find_top_alignments(seq, k, exchange, gaps, engine=eng, group=g)
        key = [(a.r, a.score, a.pairs) for a in tops]
        if reference is None:
            reference = key
        elif key != reference:
            raise AssertionError(
                f"engine={eng} G={g} diverged from the sequential reference"
            )
        if eng == engine and g == 1:
            baseline_rate = stats.cells_per_second
        rows.append(
            {
                "engine": stats.engine,
                "group": g,
                "seconds": stats.engine_seconds,
                "alignments": stats.alignments,
                "cells": stats.cells,
                "cells_per_second": stats.cells_per_second,
                "speculative_waste": stats.speculative_waste,
                "waste_ratio": stats.waste_ratio,
            }
        )
    for row in rows:
        row["speedup_vs_g1"] = (
            row["cells_per_second"] / baseline_rate if baseline_rate > 0 else 0.0
        )
    return {
        "length": length,
        "k": k,
        "seed": seed,
        "engine": engine,
        "identical_tops": True,
        "rows": rows,
    }


def batched_rows(
    length: int = 240,
    k: int = 10,
    groups: Seq[int] = (1, 4, 8),
    *,
    engine: str = "lanes",
    seed: int = 1912,
    report: dict[str, Any] | None = None,
) -> BenchTable:
    """Render :func:`batched_report` as a table (pass ``report`` to reuse one)."""
    if report is None:
        report = batched_report(length, k, groups, engine=engine, seed=seed)
    table = BenchTable(
        "Speculative batched driver — throughput vs batch width G",
        [
            "engine",
            "G",
            "seconds",
            "aligns",
            "cells",
            "cells/s",
            "waste",
            "waste %",
            "speedup",
        ],
    )
    for row in report["rows"]:
        table.add(
            row["engine"],
            row["group"],
            row["seconds"],
            row["alignments"],
            row["cells"],
            row["cells_per_second"],
            row["speculative_waste"],
            100.0 * row["waste_ratio"],
            row["speedup_vs_g1"],
        )
    table.notes.append(
        f"length={report['length']} k={report['k']}; every row returned "
        "bit-identical top alignments; speedup is cells/s vs the G=1 row "
        "of the same engine"
    )
    table.notes.append(
        "paper §5.1: speculation adds <0.70 % extra alignments at cluster "
        "scale; single-host G=8 trades a few % waste for lane throughput"
    )
    return table


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


# -- k-mer index tier (routing + seeded bounds) -------------------------------


def _index_database(records: int, length: int, repeat_every: int) -> list[Sequence]:
    """The index benchmark's synthetic database: mostly random DNA.

    Every ``repeat_every``-th record carries an implanted tandem family
    (unit 40, four copies, 12 % divergence); the rest are background.
    With ``repeat_every=6`` the database is ~17 % repetitive — the
    low-repeat regime (<=20 %) the routing tier is built for.
    """
    from ..sequences.alphabet import DNA
    from ..sequences.workloads import RepeatSpec, implant_repeats, random_sequence

    database: list[Sequence] = []
    for i in range(records):
        if i % repeat_every == 0:
            workload = implant_repeats(
                length,
                RepeatSpec(unit_length=40, copies=4, substitution_rate=0.12),
                DNA,
                seed=i,
                id=f"rep{i:03d}",
            )
            database.append(workload.sequence)
        else:
            database.append(
                random_sequence(length, DNA, seed=100 + i, id=f"bg{i:03d}")
            )
    return database


def _tops_key(reports) -> list[tuple]:
    """Byte-comparison key of every record's accepted top alignments."""
    key = []
    for rep in reports:
        tops = [] if rep.result is None else [
            (a.r, a.score, a.pairs) for a in rep.result.top_alignments
        ]
        key.append((rep.id, tops))
    return key


def index_report(
    records: int = 24,
    length: int = 240,
    *,
    repeat_every: int = 6,
    min_score: float = 80.0,
    k: int = 10,
    store_dir: str | None = None,
) -> dict[str, Any]:
    """Database-scan throughput with and without the k-mer index tier.

    Scans the synthetic low-repeat database three ways — unindexed,
    indexed against a cold store, indexed again against the now-warm
    store — asserting that all three return byte-identical accepted
    tops.  Returns the JSON-ready payload ``repro bench index --json``
    and the CI bench gate write as ``BENCH_index.json``.
    """
    import shutil
    import tempfile

    from ..core.api import RepeatFinder
    from ..core.scan import DatabaseScanner
    from ..index import IndexConfig, IndexStore

    database = _index_database(records, length, repeat_every)

    def run(index: "IndexConfig | None", store: "IndexStore | None"):
        scanner = DatabaseScanner(
            finder=RepeatFinder(top_alignments=k, min_score=min_score),
            index=index,
            index_store=store,
        )
        seconds, reports = _timed(lambda: scanner.scan(database))
        return seconds, reports, dict(scanner.index_stats)

    def row(mode: str, seconds: float, reports, stats: dict[str, Any]) -> dict[str, Any]:
        cells = sum(r.result.stats.cells for r in reports if r.result is not None)
        aligns = sum(
            r.result.stats.alignments for r in reports if r.result is not None
        )
        return {
            "mode": mode,
            "seconds": seconds,
            "cells": cells,
            "cells_per_second": cells / seconds if seconds > 0 else 0.0,
            "alignments": aligns,
            "skipped": stats.get("skip", 0),
            "deferred": stats.get("defer", 0),
            "full": stats.get("full", 0),
            "index_builds": stats.get("index_builds", 0),
            "index_loads": stats.get("index_loads", 0),
            "build_seconds": stats.get("index_seconds", 0.0),
        }

    owned = store_dir is None
    root = tempfile.mkdtemp(prefix="repro-index-bench-") if owned else store_dir
    try:
        config = IndexConfig()
        base_s, base_reports, _ = run(None, None)
        cold_s, cold_reports, cold_stats = run(config, IndexStore(root))
        warm_s, warm_reports, warm_stats = run(config, IndexStore(root))
    finally:
        if owned:
            shutil.rmtree(root, ignore_errors=True)

    reference = _tops_key(base_reports)
    identical = (
        _tops_key(cold_reports) == reference and _tops_key(warm_reports) == reference
    )
    rows = [
        row("unindexed", base_s, base_reports, {}),
        row("indexed-cold", cold_s, cold_reports, cold_stats),
        row("indexed-warm", warm_s, warm_reports, warm_stats),
    ]
    return {
        "records": records,
        "length": length,
        "repeat_every": repeat_every,
        "repetitive_fraction": 1.0 / repeat_every,
        "min_score": min_score,
        "k": k,
        "identical_tops": identical,
        "speedup_cold": base_s / cold_s if cold_s > 0 else 0.0,
        "speedup_warm": base_s / warm_s if warm_s > 0 else 0.0,
        "warm_rebuilds": warm_stats.get("index_builds", 0),
        "rows": rows,
    }


def pruning_report(
    length: int = 300,
    k: int = 4,
    *,
    unit_length: int = 100,
    copies: int = 2,
    substitution_rate: float = 0.03,
    min_score: float = 140.0,
    engine: str = "vector",
    seed: int = 7,
) -> dict[str, Any]:
    """Exact in-fill pruning ablation (see :mod:`repro.align.pruning`).

    Runs the same search with pruning off and on over a DNA sequence
    carrying one strong implanted repeat, asserts the accepted tops are
    byte-identical, and reports *effective* throughput: the pruning-off
    cell count divided by each run's wall time, so skipped cells count
    as work delivered, not work dodged.  The high ``min_score`` is the
    regime pruning targets — edge splits retire before their first
    fill, and hopeless fills stop as soon as the per-row bounds prove
    they cannot reach the floor.  Returns the JSON-ready payload
    ``repro bench pruning --json`` and the CI prune gate write as
    ``BENCH_pruning.json``.
    """
    from ..sequences.alphabet import DNA
    from ..sequences.workloads import RepeatSpec, implant_repeats

    workload = implant_repeats(
        length,
        RepeatSpec(
            unit_length=unit_length,
            copies=copies,
            substitution_rate=substitution_rate,
        ),
        DNA,
        seed=seed,
    )
    sequence = workload.sequence
    from ..scoring.exchange import match_mismatch

    exchange = match_mismatch(sequence.alphabet, 2.0, -1.0)
    gaps = GapPenalties(2, 1)

    def run(prune: bool):
        return _timed(
            lambda: find_top_alignments(
                sequence,
                k,
                exchange,
                gaps,
                engine=engine,
                group=1,
                min_score=min_score,
                prune=prune,
            )
        )

    run(True)  # warm numpy / allocator before timing
    off_s, (off_tops, off_stats) = run(False)
    on_s, (on_tops, on_stats) = run(True)
    baseline_cells = off_stats.cells

    def row(prune: bool, seconds: float, tops, stats) -> dict[str, Any]:
        return {
            "prune": prune,
            "seconds": seconds,
            "tops": len(tops),
            "alignments": stats.alignments,
            "cells": stats.cells,
            "pruned_cells": stats.pruned_cells,
            "pruned_lanes": stats.pruned_lanes,
            "effective_cells_per_second": (
                baseline_cells / seconds if seconds > 0 else 0.0
            ),
        }

    identical = [(a.r, a.score, a.pairs) for a in on_tops] == [
        (a.r, a.score, a.pairs) for a in off_tops
    ]
    return {
        "length": length,
        "k": k,
        "unit_length": unit_length,
        "copies": copies,
        "substitution_rate": substitution_rate,
        "min_score": min_score,
        "engine": engine,
        "seed": seed,
        "identical_tops": identical,
        "speedup": off_s / on_s if on_s > 0 else 0.0,
        "cells_skipped_fraction": (
            1.0 - on_stats.cells / baseline_cells if baseline_cells else 0.0
        ),
        "rows": [
            row(False, off_s, off_tops, off_stats),
            row(True, on_s, on_tops, on_stats),
        ],
    }


def pruning_rows(
    length: int = 300,
    k: int = 4,
    *,
    min_score: float = 140.0,
    report: dict[str, Any] | None = None,
) -> BenchTable:
    """Render :func:`pruning_report` as a table (pass ``report`` to reuse one)."""
    if report is None:
        report = pruning_report(length, k, min_score=min_score)
    table = BenchTable(
        "Exact pruning — effective throughput with provable score bounds",
        [
            "prune",
            "seconds",
            "tops",
            "aligns",
            "cells",
            "pruned cells",
            "pruned lanes",
            "eff. cells/s",
        ],
    )
    for row in report["rows"]:
        table.add(
            "on" if row["prune"] else "off",
            row["seconds"],
            row["tops"],
            row["alignments"],
            row["cells"],
            row["pruned_cells"],
            row["pruned_lanes"],
            row["effective_cells_per_second"],
        )
    table.notes.append(
        f"DNA {report['length']} bp, one implanted "
        f"{report['unit_length']}x{report['copies']} repeat, "
        f"min_score={report['min_score']:g}, engine={report['engine']}; "
        f"accepted tops byte-identical: {report['identical_tops']}"
    )
    table.notes.append(
        f"speedup {report['speedup']:.2f}x effective cells/s "
        f"({report['cells_skipped_fraction']:.0%} of cells never evaluated); "
        "bounds are exact, so this is pure saved work"
    )
    return table


def index_rows(
    records: int = 24,
    length: int = 240,
    *,
    repeat_every: int = 6,
    min_score: float = 80.0,
    k: int = 10,
    report: dict[str, Any] | None = None,
) -> BenchTable:
    """Render :func:`index_report` as a table (pass ``report`` to reuse one)."""
    if report is None:
        report = index_report(
            records, length, repeat_every=repeat_every, min_score=min_score, k=k
        )
    table = BenchTable(
        "k-mer index tier — database-scan throughput on a low-repeat database",
        [
            "mode",
            "seconds",
            "cells",
            "cells/s",
            "aligns",
            "skip",
            "defer",
            "full",
            "builds",
            "loads",
        ],
    )
    for row in report["rows"]:
        table.add(
            row["mode"],
            row["seconds"],
            row["cells"],
            row["cells_per_second"],
            row["alignments"],
            row["skipped"],
            row["deferred"],
            row["full"],
            row["index_builds"],
            row["index_loads"],
        )
    table.notes.append(
        f"{report['records']} DNA records x {report['length']} bp, "
        f"{report['repetitive_fraction']:.0%} repetitive, "
        f"min_score={report['min_score']:g}; accepted tops byte-identical "
        f"across all modes: {report['identical_tops']}"
    )
    table.notes.append(
        f"speedup: {report['speedup_cold']:.1f}x cold, "
        f"{report['speedup_warm']:.1f}x warm "
        f"({report['warm_rebuilds']} indices rebuilt on the warm rerun)"
    )
    return table
