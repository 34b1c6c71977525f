"""Ablations of the new algorithm's design choices (DESIGN.md §5).

The O(n⁴)→O(n³) gap comes from two separable ideas; Table 1 measures
their product, this bench isolates each:

* **best-first queue** (stale scores as upper bounds) — ablated by a
  variant that keeps the bottom-row cache but realigns *every* stale
  task after each acceptance;
* **bottom-row cache** (Appendix A shadow test) — ablated by a variant
  that keeps the queue but validates realignments by aligning twice
  (with and without the triangle), the appendix's "computationally
  expensive" alternative.

All variants must produce identical top alignments (asserted).  A third
ablation times the dense and the sparse override-triangle classes on the
acceptances of one search.
"""

import numpy as np
import pytest

from repro.align.base import AlignmentProblem
from repro.core import TaskQueue, TopAlignmentState, find_top_alignments
from repro.core.override import DenseOverrideTriangle, SparseOverrideTriangle

from conftest import save_table
from figures import bench_sequence, default_scoring

LENGTH = 250
K = 8


def _key(alignments):
    return [(a.index, a.r, a.score, a.pairs) for a in alignments]


def run_baseline(seq, exchange, gaps):
    """The full algorithm: queue + cache."""
    state = TopAlignmentState(seq, exchange, gaps)
    tops, stats = find_top_alignments(seq, K, exchange, gaps, state=state, group=1)
    return tops, stats.alignments


def run_no_queue(seq, exchange, gaps):
    """Ablate the best-first queue: realign every stale task per round,
    keeping the cached-bottom-row shadow test."""
    state = TopAlignmentState(seq, exchange, gaps)
    tasks = state.make_tasks()
    for task in tasks:
        state.align_task(task)
    while state.n_found < K:
        best = max(tasks, key=lambda t: (t.score, -t.r))
        if best.score <= 0:
            break
        state.accept_task(best)
        for task in tasks:  # the ablated part: no pruning at all
            state.align_task(task)
    return list(state.found), state.stats.alignments


def run_no_cache(seq, exchange, gaps):
    """Ablate the bottom-row cache: best-first queue, but shadow
    validity via the align-twice scheme (no stored first rows)."""
    state = TopAlignmentState(seq, exchange, gaps)
    counter = {"alignments": 0}

    def plain_row(r):
        problem = AlignmentProblem(
            state.codes[:r], state.codes[r:], exchange, gaps
        )
        counter["alignments"] += 1
        return state.engine.last_row(problem)

    def overridden_row(r):
        counter["alignments"] += 1
        return state.engine.last_row(state.problem_for(r))

    queue = TaskQueue()
    tasks = state.make_tasks()
    for task in tasks:
        queue.insert(task)
    while state.n_found < K and queue:
        task = queue.pop_highest()
        if task.score <= 0:
            break
        if task.aligned_with == state.n_found:
            # accept_task needs the stored rows; feed them lazily from a
            # fresh plain alignment so its machinery stays intact.
            if task.r not in state.bottom_rows:
                state.bottom_rows.put(task.r, plain_row(task.r))
            state.accept_task(task)
        else:
            plain = plain_row(task.r)
            if state.triangle.version == 0:
                over = plain
            else:
                over = overridden_row(task.r)
            valid = over == plain
            task.score = float(over[valid].max()) if valid.any() else 0.0
            task.aligned_with = state.n_found
            if task.r not in state.bottom_rows:
                state.bottom_rows.put(task.r, plain)
        queue.insert(task)
    return list(state.found), counter["alignments"]


@pytest.fixture(scope="module")
def scoring_mod():
    return default_scoring()


@pytest.fixture(scope="module")
def seq_mod():
    return bench_sequence(LENGTH)


def test_ablation_queue(benchmark, seq_mod, scoring_mod):
    exchange, gaps = scoring_mod
    benchmark.group = "ablation"
    tops, _ = benchmark.pedantic(
        lambda: run_no_queue(seq_mod, exchange, gaps), rounds=1, iterations=1
    )
    base, _ = find_top_alignments(seq_mod, K, exchange, gaps)
    assert _key(tops) == _key(base)


def test_ablation_cache(benchmark, seq_mod, scoring_mod):
    exchange, gaps = scoring_mod
    benchmark.group = "ablation"
    tops, _ = benchmark.pedantic(
        lambda: run_no_cache(seq_mod, exchange, gaps), rounds=1, iterations=1
    )
    base, _ = find_top_alignments(seq_mod, K, exchange, gaps)
    assert _key(tops) == _key(base)


def test_ablation_baseline(benchmark, seq_mod, scoring_mod):
    exchange, gaps = scoring_mod
    benchmark.group = "ablation"
    benchmark.pedantic(
        lambda: run_baseline(seq_mod, exchange, gaps), rounds=1, iterations=1
    )


def test_ablation_work_accounting(benchmark, seq_mod, scoring_mod, results_dir):
    """Both ideas must independently reduce alignment counts; together
    they give the Table 1 factor."""
    exchange, gaps = scoring_mod
    benchmark.group = "ablation"

    def run_all():
        _, full = run_baseline(seq_mod, exchange, gaps)
        _, no_queue = run_no_queue(seq_mod, exchange, gaps)
        _, no_cache = run_no_cache(seq_mod, exchange, gaps)
        return full, no_queue, no_cache

    full, no_queue, no_cache = benchmark.pedantic(run_all, rounds=1, iterations=1)
    save_table(
        results_dir,
        "ablation",
        "Ablation — engine alignments to find "
        f"{K} top alignments (m={LENGTH})\n"
        f"full algorithm (queue + bottom-row cache): {full}\n"
        f"no best-first queue (realign everything):  {no_queue}\n"
        f"no bottom-row cache (align twice):         {no_cache}\n"
        "every variant returns identical top alignments",
    )
    assert full < no_cache < no_queue


def test_ablation_index_tier(benchmark, results_dir):
    """Ablate the k-mer index tier's routing: skipped records, same
    accepted tops.  (The tier routes records only; every record it lets
    through gets the unindexed search.)"""
    from repro.core.api import RepeatFinder
    from repro.core.scan import DatabaseScanner
    from repro.index import IndexConfig
    from repro.sequences.alphabet import DNA
    from repro.sequences.workloads import RepeatSpec, implant_repeats, random_sequence

    benchmark.group = "ablation"

    def _tops_key(reports):
        return [
            (rep.id, [(a.r, a.score, a.pairs) for a in rep.result.top_alignments])
            for rep in reports
        ]

    def run_all():
        # A small low-repeat database: mostly random DNA; every sixth
        # record carries a tandem family.
        repeat = RepeatSpec(unit_length=40, copies=4, substitution_rate=0.12)
        database = [
            implant_repeats(180, repeat, DNA, seed=i, id=f"rep{i:03d}").sequence
            if i % 6 == 0
            else random_sequence(180, DNA, seed=100 + i, id=f"bg{i:03d}")
            for i in range(12)
        ]
        def scan(index):
            scanner = DatabaseScanner(
                finder=RepeatFinder(top_alignments=K, min_score=80.0),
                index=index,
            )
            return scanner.scan(database), dict(scanner.index_stats)
        base_reports, _ = scan(None)
        routed_reports, stats = scan(IndexConfig())
        return base_reports, routed_reports, stats

    base_reports, routed_reports, stats = benchmark.pedantic(
        run_all, rounds=1, iterations=1
    )
    assert _tops_key(routed_reports) == _tops_key(base_reports)
    assert stats["skip"] > 0

    def total(reports, counter):
        return sum(getattr(r.result.stats, counter) for r in reports if r.result)

    # Block bounds already retire every split of a record the index
    # skips (tests/conformance/test_skip_audit.py), so routing saves the
    # block fills, not alignments.
    assert total(routed_reports, "alignments") == total(base_reports, "alignments")
    assert total(routed_reports, "cells") < total(base_reports, "cells")
    routing = (
        f"routing (skip={stats['skip']}, full={stats['full']}, defer={stats['defer']})"
    )
    save_table(
        results_dir,
        "ablation-index",
        "Ablation — k-mer index tier (DNA, min_score=80)\n"
        f"12-record low-repeat database, top {K} per record:\n"
        f"  {'':<38} alignments      cells\n"
        + "".join(
            f"  {label:<38} {total(reports, 'alignments'):>10} "
            f"{total(reports, 'cells'):>10}\n"
            for label, reports in (
                ("no index tier", base_reports),
                (routing, routed_reports),
            )
        )
        + "both variants return identical accepted tops",
    )


def test_ablation_pruning(benchmark, results_dir):
    """Ablate the exact block bounds: the same high-min_score search
    with bounds on vs off must accept identical tops while evaluating
    strictly fewer cells, block fills included."""
    from repro.core.api import RepeatFinder
    from repro.scoring import GapPenalties, match_mismatch
    from repro.sequences.alphabet import DNA
    from repro.sequences.workloads import RepeatSpec, implant_repeats

    benchmark.group = "ablation"
    seq = implant_repeats(
        240, RepeatSpec(unit_length=80, copies=2, substitution_rate=0.05),
        DNA, seed=7,
    ).sequence
    exchange = match_mismatch(DNA, 2.0, -1.0)
    gaps = GapPenalties(2.0, 1.0)

    def run_both():
        def finder(prune):
            return RepeatFinder(
                top_alignments=K,
                min_score=100.0,
                exchange=exchange,
                gaps=gaps,
                prune=prune,
            )

        return finder(False).find(seq), finder(True).find(seq)

    off, on = benchmark.pedantic(run_both, rounds=1, iterations=1)
    key = [(a.index, a.r, a.score, a.pairs) for a in off.top_alignments]
    pruned_key = [(a.index, a.r, a.score, a.pairs) for a in on.top_alignments]
    assert pruned_key == key
    assert on.stats.pruned_cells > 0
    assert on.stats.cells < off.stats.cells
    save_table(
        results_dir,
        "ablation-pruning",
        "Ablation — exact block bounds (DNA 240 bp, min_score=100)\n"
        f"cells evaluated, bounds off:   {off.stats.cells}\n"
        f"cells evaluated, bounds on:    {on.stats.cells}\n"
        f"cells of splits retired:       {on.stats.pruned_cells} "
        f"({on.stats.pruned_lanes} splits)\n"
        "both variants return identical accepted tops",
    )


def _replay_triangle(kind, m, accepted):
    """What a search asks of its triangle: one ``mark`` per acceptance,
    and after each, every row the next lockstep fills read."""
    triangle = kind(m)
    for alignment in accepted:
        triangle.mark(alignment.pairs)
        for i in range(1, m + 1):
            triangle.row_flags(i)
    return triangle


def _same_rows(a, b):
    return all(
        (x is None and y is None) or np.array_equal(x, y)
        for x, y in zip(
            (a.row_flags(i) for i in range(1, a.m + 1)),
            (b.row_flags(i) for i in range(1, b.m + 1)),
        )
    )


@pytest.mark.parametrize(
    "kind", [DenseOverrideTriangle, SparseOverrideTriangle], ids=["dense", "sparse"]
)
def test_triangle_storage(benchmark, seq_mod, scoring_mod, kind):
    """Dense vs sparse override triangle: same rows, different
    memory/speed trade-off (the paper's 'can be compressed' remark).
    A search picks one by its length (``TopAlignmentState``); this times
    both classes on the acceptances of one search."""
    exchange, gaps = scoring_mod
    tops, _ = find_top_alignments(seq_mod, K, exchange, gaps)
    assert len(tops) == K
    m = len(seq_mod)
    benchmark.group = "ablation-triangle"
    benchmark.pedantic(lambda: _replay_triangle(kind, m, tops), rounds=5, iterations=1)
    triangle, dense = kind(m), DenseOverrideTriangle(m)
    for alignment in tops:
        triangle.mark(alignment.pairs)
        dense.mark(alignment.pairs)
        assert _same_rows(triangle, dense)
