"""Tests for the exact in-fill pruning bounds (:mod:`repro.align.pruning`).

The contract under test is absolute: pruning may only skip work it can
*prove* is irrelevant, so accepted top alignments must be byte-identical
with pruning on or off — across engines, group widths, integer work
types, wildcard-bearing sequences and the linear-memory store —
and every bound the gate ever computes must dominate the exhaustively
computed true score of the fill it skipped.
"""

import numpy as np
import pytest
from benchmarks.comparators import StripedEngine
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import LanesEngine, PruneContext, PruneGate, ScalarEngine
from repro.align.vector import iter_rows
from repro.core import TopAlignmentState, find_top_alignments
from repro.scoring import GapPenalties, match_mismatch
from repro.sequences import DNA, RepeatSpec, Sequence, implant_repeats, pseudo_titin

INT16_MAX = 32767


def _key(tops):
    return [(a.r, a.score, a.pairs) for a in tops]


def _sse():
    """The paper's SSE configuration: 4 lanes of int16 (here promoted,
    never saturated, when a sub-batch's score bound outgrows it)."""
    return LanesEngine(lanes=4, dtype="int16")


@pytest.fixture(scope="module")
def repeat_dna():
    """DNA with one strong implanted repeat — the pruning-friendly regime."""
    return implant_repeats(
        200,
        RepeatSpec(unit_length=60, copies=2, substitution_rate=0.05),
        DNA,
        seed=3,
    ).sequence


class TestByteEquality:
    """Pruning must change the work done, never the answer."""

    @pytest.mark.parametrize(
        "engine",
        # The striped comparator ignores gates: lane bounds still apply.
        ["vector", pytest.param(StripedEngine(), id="striped"), "lanes", "scalar"],
    )
    @pytest.mark.parametrize("group", [1, 4])
    @pytest.mark.parametrize("min_score", [0.0, 60.0])
    def test_tops_identical_on_vs_off(
        self, repeat_dna, dna_scoring, engine, group, min_score
    ):
        exchange, gaps = dna_scoring
        off, _ = find_top_alignments(
            repeat_dna, 5, exchange, gaps,
            engine=engine, group=group, min_score=min_score, prune=False,
        )
        on, stats = find_top_alignments(
            repeat_dna, 5, exchange, gaps,
            engine=engine, group=group, min_score=min_score, prune=True,
        )
        assert _key(on) == _key(off)
        # Skipped + evaluated work must never lose cells relative to the
        # exhaustive run (a pruned lane accounts for its whole matrix).
        assert stats.pruned_cells >= 0
        assert stats.pruned_lanes >= 0

    def test_pruning_actually_fires(self, repeat_dna, dna_scoring):
        exchange, gaps = dna_scoring
        _, stats = find_top_alignments(
            repeat_dna, 5, exchange, gaps, min_score=60.0, prune=True
        )
        assert stats.pruned_lanes > 0
        assert stats.pruned_cells > 0
        # The counters are mirrored into the repro_prune_* metric family.
        from repro.core.result import _STAT_MIRRORS

        assert _STAT_MIRRORS["pruned_cells"][0] == "repro_prune_cells_total"
        assert _STAT_MIRRORS["pruned_lanes"][0] == "repro_prune_lanes_total"

    def test_prune_off_runs_clean(self, repeat_dna, dna_scoring):
        exchange, gaps = dna_scoring
        _, stats = find_top_alignments(
            repeat_dna, 5, exchange, gaps, min_score=60.0, prune=False
        )
        assert stats.pruned_lanes == 0
        assert stats.pruned_cells == 0


class TestSaturation:
    """Bounds stay sound as scores approach and pass the int16 range,
    where the paper's SSE shorts would saturate and ours are promoted."""

    def test_tops_identical_near_int16_max(self):
        # +270 per match on a pure tandem pushes accepted scores to
        # within ~10 % of the signed-short ceiling: the requested int16
        # engine runs its narrow splits in int16 and the deep ones in
        # int32, through the whole search.
        seq = Sequence("ATGC" * 60, DNA, id="tandem")
        exchange = match_mismatch(DNA, 270.0, -1.0)
        gaps = GapPenalties(2.0, 1.0)
        off, off_stats = find_top_alignments(
            seq, 4, exchange, gaps,
            engine=_sse(), min_score=500.0, prune=False,
        )
        on, on_stats = find_top_alignments(
            seq, 4, exchange, gaps,
            engine=_sse(), min_score=500.0, prune=True,
        )
        assert _key(on) == _key(off)
        assert off and INT16_MAX * 0.8 < off[0].score < INT16_MAX
        assert on_stats.cells <= off_stats.cells
        assert on_stats.engine == "lanes[int32]"

    def test_bounds_dominate_saturated_scores(self):
        # +30000 per match: every deep cell is far past 32767.  The
        # requested int16 is promoted, the fill is exact, and the bound
        # tables dominate it — a gate with its floor above the true
        # maximum prunes, and its bound covers the true row.
        exchange = match_mismatch(DNA, 30000.0, -1.0, wildcard_score=None)
        gaps = GapPenalties(2.0, 1.0)
        seq = Sequence("AAAAAAAA", DNA, id="sat")
        state = TopAlignmentState(seq, exchange, gaps, engine=_sse())
        r = 4
        truth = ScalarEngine().last_row(state.problem_for(r, with_override=False))
        assert truth.max() == 4 * 30000.0
        assert np.array_equal(
            state.engine.last_row(state.problem_for(r, with_override=False)), truth
        )
        ctx = state.prune_context
        ctx.configure(truth.max() + 1.0)
        gate = ctx.gate_for(r)
        assert ctx.lane_bounds[r] >= truth.max()
        row = state.engine.last_row(
            state.problem_for(r, with_override=False, prune=gate)
        )
        if gate.pruned:
            assert gate.bound >= truth.max()
        else:
            assert np.array_equal(row, truth)


class TestWildcards:
    """Wildcard columns (all entries <= 0) contribute zero gain, not noise."""

    def test_wildcard_columns_have_zero_gain(self, dna_scoring):
        exchange, gaps = dna_scoring  # wildcard pairings score 0.0
        seq = Sequence("ATGCATGC" + "N" * 24 + "ATGCATGC" * 3, DNA, id="wc")
        state = TopAlignmentState(seq, exchange, gaps)
        ctx = state.prune_context
        wc = DNA.wildcard_code
        wildcard_cols = seq.codes == wc
        assert wildcard_cols.any()
        # max(P[a, x], 0) is 0 everywhere in a wildcard column, so the
        # per-column gain — and hence its term in every bound — is 0.
        assert np.all(ctx.gain[wildcard_cols] == 0.0)
        # col_suffix is flat across the wildcard run (no gain accrues).
        run = np.flatnonzero(wildcard_cols)
        assert ctx.col_suffix[run[0]] == ctx.col_suffix[run[0] + 1] + 0.0

    def test_tops_identical_with_wildcards(self, dna_scoring):
        exchange, gaps = dna_scoring
        seq = Sequence("ATGCATGC" + "N" * 24 + "ATGCATGC" * 3, DNA, id="wc")
        off, _ = find_top_alignments(seq, 4, exchange, gaps, prune=False)
        on, _ = find_top_alignments(seq, 4, exchange, gaps, prune=True)
        assert _key(on) == _key(off)


class TestLinearMemory:
    """Pruned tasks cache no bottom row; the linear store must cope."""

    def test_linear_space_recompute_of_pruned_search(self, repeat_dna, dna_scoring):
        exchange, gaps = dna_scoring
        baseline, _ = find_top_alignments(
            repeat_dna, 5, exchange, gaps, min_score=60.0, prune=False
        )
        state = TopAlignmentState(
            repeat_dna, exchange, gaps,
            memory="linear", linear_capacity=2, prune=True,
        )
        linear, stats = find_top_alignments(
            repeat_dna, 5, exchange, gaps, min_score=60.0, state=state
        )
        assert _key(linear) == _key(baseline)
        assert stats.pruned_lanes > 0
        assert state.bottom_rows.resident_rows <= 2
        # The store's gate-free recompute path produced exact rows even
        # though the first pass pruned some of the splits it re-derives.
        assert state.bottom_rows.recomputations >= 0


class TestGateMechanics:
    def _context(self, text="ATGCATGCATGC", match=2.0, mismatch=-1.0):
        seq = Sequence(text, DNA)
        exchange = match_mismatch(DNA, match, mismatch)
        state = TopAlignmentState(seq, exchange, GapPenalties(2.0, 1.0))
        return state.prune_context

    def test_invalid_split_rejected(self):
        ctx = self._context()
        with pytest.raises(ValueError, match="split"):
            ctx.gate_for(0)
        with pytest.raises(ValueError, match="split"):
            ctx.gate_for(12)

    def test_lane_bounds_seed_the_tasks(self):
        # B0 depends on the split alone, so it is every task's starting
        # heap score (never-aligned, like an index seed bound) instead
        # of a per-pop deferral against a live threshold.
        seq = Sequence("ATGCATGCATGC", DNA)
        exchange = match_mismatch(DNA, 2.0, -1.0)
        state = TopAlignmentState(seq, exchange, GapPenalties(2.0, 1.0))
        ctx = state.prune_context
        for task in state.make_tasks():
            gate = ctx.gate_for(task.r)
            assert task.aligned_with == -1
            assert task.score == ctx.lane_bounds[task.r]
            assert task.score == min(gate.rem[0], ctx.col_suffix[task.r])
        # Index seeds only ever tighten them.
        seeded = TopAlignmentState(
            seq, exchange, GapPenalties(2.0, 1.0), seed_bounds=np.full(11, 5.0)
        )
        assert [t.score for t in seeded.make_tasks()] == [
            min(5.0, b) for b in ctx.lane_bounds[1:12]
        ]
        unpruned = TopAlignmentState(seq, exchange, GapPenalties(2.0, 1.0), prune=False)
        assert all(t.score == float("inf") for t in unpruned.make_tasks())

    def test_prune_requires_strict_progress(self):
        # A prune may never leave a task's heap score where it was (the
        # search would repeat it forever): a recorded bound is capped by
        # the previous score, and a task already at or below the floor
        # gets no gate at all — only a full fill is sure to move it.
        from repro.core import Task

        seq = Sequence("ATGCATGCATGC", DNA)
        state = TopAlignmentState(
            seq, match_mismatch(DNA, 2.0, -1.0), GapPenalties(2.0, 1.0)
        )
        ctx = state.prune_context
        ctx.configure(10.0)
        gate = ctx.gate_for(6, cap=7.0)
        gate.record_row_prune(2, 1.0)
        assert gate.bound <= 7.0
        assert state._gate_for(Task(6, score=10.0)) is None
        assert state._gate_for(Task(6, score=10.5)) is not None
        ctx.configure(0.0)  # nothing can sink to a zero floor: no gates
        assert state._gate_for(Task(6, score=10.5)) is None

    def test_row_cutoffs_opt_out_at_zero_floor(self):
        # floor=0 makes every cutoff negative (best >= 0 always), so
        # gating a fill could never fire — the gate must opt out.
        ctx = self._context()
        ctx.configure(0.0)
        assert ctx.gate_for(6).row_cutoffs() is None

    def test_counters_cover_the_matrix(self):
        ctx = self._context()
        ctx.configure(10.0)
        gate = ctx.gate_for(6)
        gate.record_row_prune(2, 1.0)
        assert gate.pruned
        assert gate.cells_filled == 2 * gate.cols
        assert gate.cells_filled + gate.pruned_cells == gate.rows * gate.cols


# No max_examples pin: the nightly ci-deep profile deepens this sweep.
@given(
    codes=st.lists(st.integers(0, 3), min_size=8, max_size=36),
    r_frac=st.floats(0.05, 0.95),
    match=st.integers(1, 5),
    mismatch=st.integers(-4, 0),
)
@settings(deadline=None)
def test_every_bound_dominates_the_true_score(codes, r_frac, match, mismatch):
    """Exhaustively fill each sampled block; every gate bound dominates.

    This is the pruning soundness theorem stated as a property: for a
    random sequence, scoring and split, the pre-fill bound and every
    per-row bound is >= the true task score (the bottom-row maximum of
    the fully computed matrix).
    """
    seq = Sequence("".join("ACGT"[c] for c in codes), DNA)
    exchange = match_mismatch(DNA, float(match), float(mismatch))
    state = TopAlignmentState(seq, exchange, GapPenalties(2.0, 1.0))
    ctx = state.prune_context
    m = len(seq)
    r = min(m - 1, max(1, round(r_frac * m)))
    gate = ctx.gate_for(r)

    problem = state.problem_for(r, with_override=False)
    filled = [row.copy() for _, row in iter_rows(problem)]
    matrix = np.stack(filled)  # matrix[y - 1] is row y, cols 0..m-r
    true_score = float(matrix[r - 1].max())

    assert ctx.lane_bounds[r] >= true_score - 1e-9

    best = 0.0
    for y in range(1, r + 1):
        best = max(best, float(matrix[y - 1].max()))
        row_bound = max(best, 0.0) + float(gate.rem[y])
        assert row_bound >= true_score - 1e-9
