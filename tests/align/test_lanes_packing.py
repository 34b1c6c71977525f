"""The lane engine as the default path: packing, harvests, batch of one.

``LanesEngine.last_rows_batch`` may sort, partition and pad a batch any
way it likes; what it returns must not depend on any of it.  The oracle
is ``scalar`` run on each problem alone
(:func:`tests.conformance.lattice.assert_rows_equal_scalar`).
"""

import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import (
    DEFAULT_ENGINE,
    AlignmentProblem,
    LanesEngine,
    PruneContext,
    QueryProfile,
    VectorEngine,
    get_engine,
)
from repro.align.lanes import MAX_ROW_CELLS, ROW_OVERHEAD, _partition
from repro.core import TopAlignmentState
from repro.scoring import GapPenalties, blosum62, match_mismatch
from repro.sequences import DNA, RepeatSpec, implant_repeats, pseudo_titin
from tests.conformance.lattice import assert_rows_equal_scalar


def _split_problems(codes, exchange, gaps, profile, context, splits):
    """Fresh problems (a gate holds one fill's harvest) for ``splits``."""
    return [
        AlignmentProblem(
            codes[:r],
            codes[r:],
            exchange,
            gaps,
            profile=None if profile is None else profile.suffix(r),
            prune=None if context is None else context.gate_for(r),
        )
        for r in splits
    ]


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    dtype=st.sampled_from(["float64", "int16"]),
    gated=st.booleans(),
    with_profile=st.booleans(),
)
def test_any_subset_of_splits_matches_vector(data, dtype, gated, with_profile):
    """Rows byte-equal to ``scalar`` on each problem alone — and each
    harvest the row's maximum — for any subset/permutation of one
    sequence's splits: mixed shapes, with and without gates and shared
    profile.  (Block problems in a batch: ``tests/conformance``.)"""
    sequence = implant_repeats(
        90,
        RepeatSpec(unit_length=25, copies=2, substitution_rate=0.05),
        DNA,
        seed=data.draw(st.integers(0, 5)),
    ).sequence
    exchange, gaps = match_mismatch(DNA, 2.0, -1.0), GapPenalties(2.0, 1.0)
    codes = sequence.codes
    m = codes.size
    splits = data.draw(
        st.lists(st.integers(1, m - 1), min_size=1, max_size=12, unique=True)
    )
    profile = QueryProfile(codes, exchange) if with_profile or gated else None
    context = PruneContext(profile) if gated else None
    got = _split_problems(
        codes, exchange, gaps, profile if with_profile else None, context, splits
    )
    rows = assert_rows_equal_scalar(LanesEngine(lanes=8, dtype=dtype), got)
    for row, problem in zip(rows, got):
        assert row.dtype == np.float64
        if gated:
            # A block of one is the split's own problem: its one
            # harvested row maximum is the first-pass score.
            assert problem.prune.bounds.tolist() == [row.max()]


def test_gates_fire_in_a_mixed_batch():
    """Block problems (staircase, many harvested rows) packed with plain
    splits in one batch: every gate is answered as if its lane ran alone."""
    sequence = implant_repeats(
        120, RepeatSpec(unit_length=30, copies=2, substitution_rate=0.05), DNA, seed=1
    ).sequence
    exchange, gaps = match_mismatch(DNA, 2.0, -1.0), GapPenalties(2.0, 1.0)
    state = TopAlignmentState(sequence, exchange, gaps)
    blocks = [(1, 20), (20, 61), (61, 64), (64, 120)]

    def make():
        problems = [state.problem_for(r) for r in (5, 60, 115)]
        problems[1:1] = [state.block_problem(*block) for block in blocks]
        return problems

    alone, together = make(), make()
    rows = LanesEngine(lanes=8).last_rows_batch(together)
    for p_alone, p_got, row in zip(alone, together, rows):
        assert row.tobytes() == VectorEngine().last_row(p_alone).tobytes()
        if p_got.prune is not None:
            assert p_got.prune.bounds.tolist() == p_alone.prune.bounds.tolist()
            assert p_got.prune.bounds.size == p_got.prune.stop - p_got.prune.first
    assert max(p.prune.bounds.max() for p in together if p.prune) >= 40.0


def test_partition_separates_incompatible_shapes():
    # Left-edge and right-edge splits of one 400-residue sequence: one
    # rectangle would be 19x the cells either side needs.
    left = [(0, 20 + i, 380 - i) for i in range(4)]
    right = [(0, 377 + i, 23 - i) for i in range(4)]
    assert _partition(left + right) == [4, 8]
    # Neighbouring middle splits share one sub-batch.
    assert _partition([(0, 196 + i, 204 - i) for i in range(8)]) == [8]
    assert _partition([]) == []
    # One matrix shape, but one lane resumes near its bottom: stepping it
    # from the other lane's start would cost it 180 rows for nothing.
    assert _partition([(180, 200, 200), (0, 200, 200)]) == [1, 2]
    # Resumed at neighbouring rows, they step together.
    assert _partition([(176, 200, 200), (160, 200, 200)]) == [2]


def _exhaustive_partition(shapes):
    """The reference: every contiguous cut considered, no look-back bound
    (the O(n^2) loop ``_partition`` was before it became linear)."""
    n = len(shapes)
    best = [0.0] + [np.inf] * n
    cut = [0] * (n + 1)
    for stop in range(1, n + 1):
        for start in range(stop - 1, -1, -1):
            tops, rows, cols = zip(*shapes[start:stop])
            stepped = max(rows) - min(tops)
            cost = best[start] + stepped * (ROW_OVERHEAD + max(cols) * (stop - start))
            if cost < best[stop]:
                best[stop], cut[stop] = cost, start
    ends = []
    while n:
        ends.append(n)
        n = cut[n]
    return ends[::-1]


def _by_rows_stepped(shapes):
    """``(rows, cols, top fraction)`` draws as packer input: ``(top, rows,
    cols)`` ascending in ``rows - top``."""
    triples = [(int(rows * frac), rows, cols) for rows, cols, frac in shapes]
    return sorted(triples, key=lambda t: (t[1] - t[0], t))


_top = st.sampled_from([0.0, 0.0, 0.3, 0.9])
_shape = st.tuples(st.integers(1, 400), st.integers(1, 300), _top)


@settings(max_examples=200, deadline=None)
@given(st.lists(_shape, max_size=MAX_ROW_CELLS // 301))
def test_partition_equals_the_exhaustive_dp_when_the_bound_cannot_bind(shapes):
    """At most 13 lanes of at most 301 cells: no row reaches the bound."""
    shapes = _by_rows_stepped(shapes)
    assert _partition(shapes) == _exhaustive_partition(shapes)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 400), st.integers(1, 6000), _top), max_size=150)
)
def test_partition_keeps_rows_within_the_cell_bound(shapes):
    """Only a lane that is too wide on its own may exceed it, alone."""
    shapes = _by_rows_stepped(shapes)
    start = 0
    for stop in _partition(shapes):
        lanes = stop - start
        width = max(cols for _, _, cols in shapes[start:stop]) + 1
        assert lanes == 1 or lanes * width <= MAX_ROW_CELLS
        start = stop
    assert start == len(shapes)


def test_partition_is_linear_in_the_batch():
    """Every split of a 4,001-residue sequence at once: the look-back
    stops at the cell bound, so the shapes are read a bounded number of
    times each (the unbounded DP reads them 8 million times)."""

    class Counting(list):
        reads = 0

        def __getitem__(self, index):
            Counting.reads += 1
            return super().__getitem__(index)

    m = 4001
    shapes = Counting((0, r, m - r) for r in range(1, m))
    ends = _partition(shapes)
    assert ends[-1] == len(shapes)
    assert Counting.reads <= 16 * len(shapes)


def test_batch_of_one_costs_what_vector_costs():
    """A bottom row the state refills after evicting it, the cluster
    simulator's splits and the invariant sweeps are fills of one
    problem: through the default engine that must stay within 10 % of ``vector.last_row`` (same-run
    ratio of best-of-N times, so machine phases cancel)."""
    sequence = pseudo_titin(400, seed=7)
    exchange, gaps = blosum62(), GapPenalties(8, 1)
    profile = QueryProfile(sequence.codes, exchange)
    problems = [
        AlignmentProblem(
            sequence.codes[:r], sequence.codes[r:], exchange, gaps,
            profile=profile.suffix(r),
        )
        for r in (150, 200, 250)
    ]
    default, vector = get_engine(DEFAULT_ENGINE), VectorEngine()

    def best_of(engine, rounds=7):
        times = []
        for _ in range(rounds):
            started = time.perf_counter()
            for problem in problems:
                engine.last_row(problem)
            times.append(time.perf_counter() - started)
        return min(times)

    best_of(default, 2), best_of(vector, 2)  # warm both
    ratios = [best_of(default) / best_of(vector) for _ in range(3)]
    assert min(ratios) <= 1.10, ratios
    for problem in problems:
        assert default.last_row(problem).tobytes() == vector.last_row(problem).tobytes()
