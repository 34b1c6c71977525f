"""Tests for the new O(n³) top-alignment algorithm."""

import gc
import os
import weakref

import numpy as np
import pytest
from benchmarks.comparators import StripedEngine
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import AlignmentProblem, full_matrix
from repro.core import TopAlignmentState, find_top_alignments
from repro.core.override import DenseOverrideTriangle, SparseOverrideTriangle
from repro.scoring import GapPenalties, match_mismatch
from repro.sequences import DNA, Sequence, tandem_repeat_sequence
from tests.conftest import shrink_state_budget


def _np_seq(codes):
    return Sequence(np.asarray(codes, dtype=np.int8), DNA)


class TestFigure4:
    """The paper's ATGCATGCATGC walk-through."""

    def test_three_top_alignments(self, tandem_dna, dna_scoring):
        ex, gaps = dna_scoring
        tops, _ = find_top_alignments(tandem_dna, 3, ex, gaps)
        assert [a.score for a in tops] == [8.0, 8.0, 8.0]
        assert tops[0].pairs == ((1, 5), (2, 6), (3, 7), (4, 8))
        assert tops[1].pairs == ((1, 9), (2, 10), (3, 11), (4, 12))
        assert tops[2].pairs == ((5, 9), (6, 10), (7, 11), (8, 12))

    def test_alignments_1_and_3_do_not_concatenate(self, tandem_dna, dna_scoring):
        """§2.2: 1 and 3 stay separate because no rectangle encloses both."""
        ex, gaps = dna_scoring
        tops, _ = find_top_alignments(tandem_dna, 3, ex, gaps)
        assert tops[0].r == 4 and tops[2].r == 8

    def test_indices_are_acceptance_order(self, tandem_dna, dna_scoring):
        ex, gaps = dna_scoring
        tops, _ = find_top_alignments(tandem_dna, 3, ex, gaps)
        assert [a.index for a in tops] == [0, 1, 2]


class TestInvariants:
    @pytest.fixture(scope="class")
    def run(self, small_repeat_protein, protein_scoring):
        ex, gaps = protein_scoring
        state = TopAlignmentState(small_repeat_protein, ex, gaps)
        tops, stats = find_top_alignments(
            small_repeat_protein, 8, ex, gaps, state=state
        )
        return small_repeat_protein, ex, gaps, tops, stats, state

    def test_requested_count(self, run):
        _, _, _, tops, _, _ = run
        assert len(tops) == 8

    def test_scores_non_increasing(self, run):
        _, _, _, tops, _, _ = run
        scores = [a.score for a in tops]
        assert scores == sorted(scores, reverse=True)

    def test_pairwise_nonoverlapping(self, run):
        """No matched residue pair belongs to two top alignments."""
        _, _, _, tops, _, _ = run
        seen = set()
        for aln in tops:
            assert not (set(aln.pairs) & seen)
            seen.update(aln.pairs)

    def test_pairs_straddle_split(self, run):
        _, _, _, tops, _, _ = run
        for aln in tops:
            for i, j in aln.pairs:
                assert 1 <= i <= aln.r < j

    def test_path_ends_in_bottom_row(self, run):
        """Appendix A: top alignments end in their matrix's bottom row."""
        _, _, _, tops, _, _ = run
        for aln in tops:
            assert aln.pairs[-1][0] == aln.r

    def test_no_shadow_alignments(self, run):
        """Every accepted alignment scores the same without the triangle."""
        seq, ex, gaps, tops, _, _ = run
        for aln in tops:
            r = aln.r
            plain = AlignmentProblem(seq.codes[:r], seq.codes[r:], ex, gaps)
            matrix = full_matrix(plain)
            end_i, end_j = aln.pairs[-1]
            assert matrix[end_i, end_j - r] == aln.score

    def test_first_alignment_is_global_best(self, run):
        seq, ex, gaps, tops, _, _ = run
        from repro.align import VectorEngine

        engine = VectorEngine()
        best = max(
            engine.score(AlignmentProblem(seq.codes[:r], seq.codes[r:], ex, gaps))
            for r in range(1, len(seq))
        )
        assert tops[0].score == best

    def test_stats_counters(self, run):
        seq, _, _, tops, stats, state = run
        m = len(seq)
        assert stats.tracebacks == len(tops)
        # alignments/realignments count *executed* split fills.  A split
        # is first-aligned at most once, and only a split whose block
        # bound never topped the heap — it cannot beat the last accepted
        # score — is never aligned at all.
        first_pass = stats.alignments - stats.realignments
        assert first_pass == len(state.bottom_rows) < m - 1
        for task in state.make_tasks():
            if task.r not in state.bottom_rows:
                assert task.score <= tops[-1].score
        assert len(stats.realignments_per_top) == len(tops) + 1
        assert stats.cells > 0 and stats.engine_seconds > 0

    def test_realignment_fraction_below_one(self, run):
        """§3: the heuristic must beat the realign-everything strategy."""
        seq, _, _, tops, stats, _ = run
        # The old algorithm realigns every split after every acceptance.
        rescan_everything = (len(tops) - 1) * (len(seq) - 1)
        assert stats.realignments < 0.6 * rescan_everything

    def test_triangle_contains_exactly_the_pairs(self, run):
        _, _, _, tops, _, state = run
        marked = set(state.triangle)
        expected = {pair for aln in tops for pair in aln.pairs}
        assert marked == expected


class TestTermination:
    def test_exhaustion_returns_fewer(self, dna_scoring):
        ex, gaps = dna_scoring
        seq = Sequence("ACGT", DNA)  # no internal repeat above score 0
        tops, _ = find_top_alignments(seq, 10, ex, gaps)
        assert len(tops) < 10

    def test_min_score_threshold(self, tandem_dna, dna_scoring):
        ex, gaps = dna_scoring
        tops, _ = find_top_alignments(tandem_dna, 30, ex, gaps, min_score=7.0)
        assert all(a.score > 7.0 for a in tops)
        assert len(tops) == 3  # only the three score-8 alignments survive

    def test_huge_k_terminates(self, tandem_dna, dna_scoring):
        ex, gaps = dna_scoring
        tops, _ = find_top_alignments(tandem_dna, 500, ex, gaps)
        assert len(tops) < 500

    def test_every_returned_alignment_positive(self, tandem_dna, dna_scoring):
        ex, gaps = dna_scoring
        tops, _ = find_top_alignments(tandem_dna, 500, ex, gaps)
        assert all(a.score > 0 for a in tops)


@pytest.mark.skipif(
    bool(os.environ.get("REPRO_CHECK_INVARIANTS")),
    reason="the invariant checker holds its state",
)
def test_a_finished_state_is_freed_without_the_cyclic_gc(
    small_repeat_protein, protein_scoring
):
    """A service worker or a scan runs search after search: a reference
    cycle through the state would keep every finished search's stores
    alive until the cyclic collector ran."""
    state = TopAlignmentState(small_repeat_protein, *protein_scoring)
    find_top_alignments(small_repeat_protein, 3, *protein_scoring, state=state)
    gone = weakref.ref(state)
    gc.disable()
    try:
        del state
        assert gone() is None
    finally:
        gc.enable()


class TestValidation:
    def test_k_must_be_positive(self, tandem_dna, dna_scoring):
        ex, gaps = dna_scoring
        with pytest.raises(ValueError):
            find_top_alignments(tandem_dna, 0, ex, gaps)

    def test_sequence_too_short(self, dna_scoring):
        ex, gaps = dna_scoring
        with pytest.raises(ValueError):
            TopAlignmentState(Sequence("A", DNA), ex, gaps)

    def test_alphabet_mismatch(self, protein_scoring, tandem_dna):
        ex, gaps = protein_scoring
        with pytest.raises(ValueError, match="alphabet"):
            TopAlignmentState(tandem_dna, ex, gaps)

    def test_accept_requires_current(self, tandem_dna, dna_scoring):
        ex, gaps = dna_scoring
        state = TopAlignmentState(tandem_dna, ex, gaps)
        task = state.make_tasks()[0]
        with pytest.raises(ValueError, match="triangle version"):
            state.accept_task(task)

    def test_accept_rejects_nonpositive(self, tandem_dna, dna_scoring):
        ex, gaps = dna_scoring
        state = TopAlignmentState(tandem_dna, ex, gaps)
        task = state.make_tasks()[0]
        task.score = 0.0
        task.aligned_with = 0
        with pytest.raises(ValueError, match="non-positive"):
            state.accept_task(task)


class TestEngineAndTriangleChoices:
    @pytest.mark.parametrize(
        "engine",
        ["scalar", "vector", "lanes", pytest.param(StripedEngine(), id="striped")],
    )
    def test_same_result_any_engine(self, engine, tandem_dna, dna_scoring):
        ex, gaps = dna_scoring
        base, _ = find_top_alignments(tandem_dna, 3, ex, gaps, engine="vector")
        other, _ = find_top_alignments(tandem_dna, 3, ex, gaps, engine=engine)
        assert [(a.r, a.score, a.pairs) for a in other] == [
            (a.r, a.score, a.pairs) for a in base
        ]

    @pytest.mark.parametrize("triangle", ["dense", "sparse"])
    def test_same_result_any_triangle(
        self, triangle, small_repeat_protein, protein_scoring, monkeypatch
    ):
        """The budget picks the triangle: a tiny one picks the sparse."""
        ex, gaps = protein_scoring
        base, _ = find_top_alignments(small_repeat_protein, 5, ex, gaps)
        if triangle == "sparse":
            shrink_state_budget(monkeypatch)
        state = TopAlignmentState(small_repeat_protein, ex, gaps)
        kind = DenseOverrideTriangle if triangle == "dense" else SparseOverrideTriangle
        assert type(state.triangle) is kind
        other, _ = find_top_alignments(small_repeat_protein, 5, ex, gaps, state=state)
        assert [(a.r, a.pairs) for a in other] == [(a.r, a.pairs) for a in base]


@pytest.mark.parametrize("triangle", ["dense", "sparse"])
def test_traceback_matrix_is_the_left_block_of_the_full_matrix(
    triangle, small_repeat_protein, protein_scoring, monkeypatch
):
    """What an acceptance fills without saved rows — the split's matrix
    up to the last column its path can end in, through the transpose
    when that is the shorter way — equals those columns of the plain
    full matrix, under every triangle the search passes through.  (With
    saved rows it fills upward from them: tests/align/test_resume.py.)
    ``scalar`` saves none; under the tiny budget its bottom rows are
    refilled as well."""
    ex, gaps = protein_scoring
    if triangle == "sparse":
        shrink_state_budget(monkeypatch)
    state = TopAlignmentState(small_repeat_protein, ex, gaps, engine="scalar")
    shapes = []
    inner = TopAlignmentState._traceback_matrix

    def checked(self, task, problem):
        matrix = inner(self, task, problem)
        whole = full_matrix(problem)
        assert matrix.dtype == whole.dtype
        assert np.array_equal(matrix, whole[:, : matrix.shape[1]])
        shapes.append(matrix.shape[1] == whole.shape[1])
        return matrix

    monkeypatch.setattr(TopAlignmentState, "_traceback_matrix", checked)
    tops, _ = find_top_alignments(small_repeat_protein, 8, ex, gaps, state=state)
    assert len(tops) == 8
    assert True in shapes and False in shapes  # both ways were taken


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_bottom_row_sufficiency_property(data, dna_scoring):
    """Appendix A: checking every split's bottom row finds the global optimum
    over all splits (the alignment that ends v rows higher appears in the
    bottom row of the r-v split)."""
    ex, gaps = dna_scoring
    m = data.draw(st.integers(4, 16))
    codes = np.array(
        data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)), dtype=np.int8
    )
    best_bottom = -np.inf
    best_anywhere = -np.inf
    for r in range(1, m):
        matrix = full_matrix(AlignmentProblem(codes[:r], codes[r:], ex, gaps))
        best_bottom = max(best_bottom, matrix[-1].max())
        best_anywhere = max(best_anywhere, matrix.max())
    assert best_bottom == best_anywhere
