"""Tests for the exact block bounds (:mod:`repro.align.pruning`).

The contract under test is absolute: a bound may only keep a fill from
happening when it *proves* the fill irrelevant, so accepted top
alignments must be byte-identical with bounds on or off — across
engines, group widths, integer work types, wildcard-bearing sequences
and a state budget that evicts bottom rows — and every harvested bound must dominate
the exhaustively computed first-pass score of the split it stands for.
(The search-level property — every split, realignments, restored
sessions — is ``test_block_bounds.py``.)
"""

import numpy as np
import pytest
from benchmarks.comparators import StripedEngine
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import LanesEngine, ScalarEngine, VectorEngine
from repro.align.pruning import Staircase
from repro.core import TopAlignmentState, find_top_alignments
from repro.scoring import GapPenalties, match_mismatch
from repro.sequences import DNA, RepeatSpec, Sequence, implant_repeats

from ..conftest import brute_force_matrix, shrink_state_budget

INT16_MAX = 32767


def _key(tops):
    return [(a.r, a.score, a.pairs) for a in tops]


def _sse():
    """The paper's SSE configuration: 4 lanes of int16 (here promoted,
    never saturated, when a sub-batch's score bound outgrows it)."""
    return LanesEngine(lanes=4, dtype="int16")


def _first_pass_scores(state):
    rows = VectorEngine().last_rows_batch(
        [state.problem_for(r, with_override=False) for r in range(1, state.m)]
    )
    return np.array([row.max() for row in rows])


@pytest.fixture(scope="module")
def repeat_dna():
    """DNA with one strong implanted repeat — the bound-friendly regime."""
    return implant_repeats(
        200,
        RepeatSpec(unit_length=60, copies=2, substitution_rate=0.05),
        DNA,
        seed=3,
    ).sequence


class TestByteEquality:
    """Bounds must change the work done, never the answer."""

    @pytest.mark.parametrize(
        "engine",
        # The striped comparator and the scalar reference answer no
        # harvest request: their tasks start at +inf (or the seeds).
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
        if engine in ("vector", "lanes"):
            # Every split is either filled or was left unfilled by a bound.
            assert stats.alignments - stats.realignments < len(repeat_dna) - 1
            assert stats.pruned_lanes > 0 or not min_score
        else:
            assert stats.pruned_lanes == stats.pruned_cells == 0

    def test_pruning_actually_fires(self, repeat_dna, dna_scoring):
        exchange, gaps = dna_scoring
        _, off = find_top_alignments(
            repeat_dna, 5, exchange, gaps, min_score=60.0, prune=False
        )
        _, stats = find_top_alignments(
            repeat_dna, 5, exchange, gaps, min_score=60.0, prune=True
        )
        assert stats.pruned_lanes > 0
        assert stats.pruned_cells > 0
        assert stats.cells < off.cells  # block fills included
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
        assert stats.alignments - stats.realignments == len(repeat_dna) - 1


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
        # requested int16 is promoted, the block fill is exact, and its
        # harvested bounds dominate the true first-pass scores.
        exchange = match_mismatch(DNA, 30000.0, -1.0, wildcard_score=None)
        gaps = GapPenalties(2.0, 1.0)
        seq = Sequence("AAAAAAAA", DNA, id="sat")
        state = TopAlignmentState(seq, exchange, gaps, engine=_sse())
        truth = ScalarEngine().last_row(state.problem_for(4, with_override=False))
        assert truth.max() == 4 * 30000.0
        bounds = state.start_bounds()
        assert np.all(bounds >= _first_pass_scores(state))
        assert bounds[4 - 1] >= truth.max()
        assert state.engine.describe() == "lanes[int32]"


class TestWildcards:
    """Wildcard pairings (score <= 0) contribute zero gain, not noise."""

    def test_wildcard_columns_have_zero_gain(self, dna_scoring):
        exchange, gaps = dna_scoring  # wildcard pairings score 0.0
        # Nothing but wildcards: no cell of any block matrix rises above
        # zero, so every bound is 0 and every split retires unfilled.
        state = TopAlignmentState(Sequence("N" * 24, DNA, id="wc"), exchange, gaps)
        tops, stats = find_top_alignments(state.sequence, 4, exchange, gaps, state=state)
        assert tops == [] and stats.alignments == 0
        assert np.all(state.start_bounds() == 0.0)
        assert stats.pruned_lanes == 23
        # A wildcard run between two repeats adds nothing to the bounds
        # of the splits inside it beyond what the flanks align to.
        seq = Sequence("ATGCATGC" + "N" * 24 + "ATGCATGC" * 3, DNA, id="wc")
        state = TopAlignmentState(seq, exchange, gaps)
        bounds, scores = state.start_bounds(), _first_pass_scores(state)
        inside = slice(8, 8 + 24 - 1)
        assert np.all(bounds[inside] >= scores[inside])
        assert bounds[inside].max() <= 16.0  # ATGCATGC against itself

    def test_tops_identical_with_wildcards(self, dna_scoring):
        exchange, gaps = dna_scoring
        seq = Sequence("ATGCATGC" + "N" * 24 + "ATGCATGC" * 3, DNA, id="wc")
        off, _ = find_top_alignments(seq, 4, exchange, gaps, prune=False)
        on, _ = find_top_alignments(seq, 4, exchange, gaps, prune=True)
        assert _key(on) == _key(off)


class TestLinearMemory:
    """Unfilled splits cache no bottom row; a store that evicts and
    refills rows must cope."""

    def test_linear_space_recompute_of_pruned_search(
        self, repeat_dna, dna_scoring, monkeypatch
    ):
        exchange, gaps = dna_scoring
        baseline, _ = find_top_alignments(
            repeat_dna, 5, exchange, gaps, min_score=60.0, prune=False
        )
        shrink_state_budget(monkeypatch)
        state = TopAlignmentState(repeat_dna, exchange, gaps, prune=True)
        linear, stats = find_top_alignments(
            repeat_dna, 5, exchange, gaps, min_score=60.0, state=state
        )
        assert _key(linear) == _key(baseline)
        assert stats.pruned_lanes > 0
        assert len(state.bottom_rows.resident()) < len(state.bottom_rows)
        # The refills are gate-free first passes, exact even though the
        # search never filled some of the splits around them.
        assert state.bottom_rows.refills > 0


class TestGateMechanics:
    def _state(self, text="ATGCATGCATGC", **kwargs):
        return TopAlignmentState(
            Sequence(text, DNA),
            match_mismatch(DNA, 2.0, -1.0),
            GapPenalties(2.0, 1.0),
            **kwargs,
        )

    def test_invalid_split_rejected(self):
        ctx = self._state().prune_context
        with pytest.raises(ValueError, match="split"):
            ctx.gate_for(0)
        with pytest.raises(ValueError, match="split"):
            ctx.gate_for(12)
        with pytest.raises(ValueError, match="split"):
            ctx.gate_for(6, 13)
        gate = ctx.gate_for(6)
        assert (gate.first, gate.stop, gate.bounds, gate.pruned) == (6, 7, None, False)

    def test_block_bounds_seed_the_tasks(self):
        # A block bound depends on the sequence alone, so it is every
        # task's starting heap score (never-aligned), computed once per
        # state.
        state = self._state()
        tasks = state.make_tasks()
        assert all(task.aligned_with == -1 for task in tasks)
        bounds = np.array([task.score for task in tasks])
        assert np.all(np.isfinite(bounds))
        assert np.all(bounds >= _first_pass_scores(state))
        cells = state.stats.cells
        assert cells == 11 * 11  # one block: rows S[1..11], columns S[2..12]
        assert [task.score for task in state.make_tasks()] == bounds.tolist()
        assert state.stats.cells == cells
        unpruned = self._state(prune=False)
        assert all(t.score == float("inf") for t in unpruned.make_tasks())
        assert unpruned.stats.cells == 0
        # The scalar engine is the unbounded reference.
        assert all(t.score == float("inf") for t in self._state(engine="scalar").make_tasks())

    def test_counters_cover_the_matrix(self):
        # A split retired at the floor accounts for its whole matrix,
        # once per search however many sessions attach.
        state = self._state()
        state.prune_context.configure(7.0)
        bounds = state.start_bounds()
        retired = [r for r in range(1, 12) if bounds[r - 1] <= 7.0]
        assert retired and len(retired) < 11
        assert state.stats.pruned_lanes == len(retired)
        assert state.stats.pruned_cells == sum(r * (12 - r) for r in retired)
        state.make_tasks()
        assert state.stats.pruned_lanes == len(retired)

    @pytest.mark.parametrize("engine", [ScalarEngine(), VectorEngine(), LanesEngine()])
    def test_engines_fill_the_staircase_alike(self, engine):
        state = self._state("ATGCATTGCAGC")
        problem = state.block_problem(3, 9)
        assert (problem.rows, problem.cols) == (8, 9)
        assert problem.cells == 8 * 9
        assert isinstance(problem.override, Staircase)
        assert problem.override.row_mask(3) is None
        assert problem.override.row_mask(5).tolist() == [True, True] + [False] * 7
        matrix = brute_force_matrix(problem)
        assert np.array_equal(engine.last_row(problem), matrix[-1])
        if not isinstance(engine, ScalarEngine):
            assert problem.prune.bounds.tolist() == matrix[3:9].max(axis=1).tolist()


# No max_examples pin: the nightly ci-deep profile deepens this sweep.
@given(
    codes=st.lists(st.integers(0, 3), min_size=6, max_size=20),
    cut=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    match=st.integers(1, 5),
    mismatch=st.integers(-4, 0),
    gap=st.tuples(st.integers(0, 6), st.integers(0, 3)),
)
@settings(deadline=None)
def test_every_bound_dominates_the_true_score(codes, cut, match, mismatch, gap):
    """Exhaustively fill a random block; every harvested bound dominates.

    This is the soundness theorem stated as a property: for a random
    sequence, scoring and block, the lane engine's harvest is exactly
    the row maxima of the brute-force staircase matrix (which shares no
    code with the engines), and each dominates the true first-pass
    score of its split cell for cell along the bottom row.
    """
    seq = Sequence("".join("ACGT"[c] for c in codes), DNA)
    exchange = match_mismatch(DNA, float(match), float(mismatch))
    state = TopAlignmentState(seq, exchange, GapPenalties(float(gap[0]), float(gap[1])))
    m = len(seq)
    first, stop = sorted(1 + round(f * (m - 2)) for f in cut)
    stop += 1

    problem = state.block_problem(first, stop)
    matrix = brute_force_matrix(problem)
    LanesEngine().last_row(problem)
    assert problem.prune.bounds.tolist() == matrix[first:stop].max(axis=1).tolist()

    for r in range(first, stop):
        own = brute_force_matrix(state.problem_for(r, with_override=False))[-1]
        # Split r's column x is block column x + (r - first).
        assert np.all(matrix[r, 1 + r - first :] >= own[1:])
