"""Tests for the Smith–Waterman–Gotoh comparator (``benchmarks/comparators.py``)."""

import numpy as np
import pytest
from benchmarks.comparators import GotohEngine, gotoh_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import AlignmentProblem, full_matrix
from repro.scoring import GapPenalties, match_mismatch
from repro.sequences import DNA, Sequence

from .test_engines_equivalence import REPRODUCER


def brute_force_gotoh(problem) -> np.ndarray:
    """Direct, stateless evaluation of the textbook recurrence."""
    rows, cols = problem.rows, problem.cols
    E = problem.exchange.scores
    open_, ext = problem.gaps.open_, problem.gaps.extend
    H = np.zeros((rows + 1, cols + 1))
    for y in range(1, rows + 1):
        for x in range(1, cols + 1):
            best = H[y - 1, x - 1] + E[problem.seq1[y - 1], problem.seq2[x - 1]]
            for k in range(0, x):  # gap in the horizontal sequence
                best = max(best, H[y, k] - (open_ + ext * (x - k)))
            for k in range(0, y):  # gap in the vertical sequence
                best = max(best, H[k, x] - (open_ + ext * (y - k)))
            H[y, x] = max(0.0, best)
    return H


class TestAgainstBruteForce:
    def test_small_example(self, dna_scoring):
        ex, gaps = dna_scoring
        p = AlignmentProblem.from_sequences("ATTGCGA", "CTTACAGA", ex, gaps)
        assert np.array_equal(gotoh_matrix(p), brute_force_gotoh(p))

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        open_=st.integers(0, 5),
        ext=st.integers(0, 3),
        match=st.integers(1, 5),
        mismatch=st.integers(-4, 0),
    )
    def test_property(self, data, open_, ext, match, mismatch):
        ex = match_mismatch(DNA, float(match), float(mismatch), wildcard_score=None)
        gaps = GapPenalties(float(open_), float(ext))
        s1 = np.array(data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=12)), dtype=np.int8)
        s2 = np.array(data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=12)), dtype=np.int8)
        p = AlignmentProblem(s1, s2, ex, gaps)
        assert np.array_equal(gotoh_matrix(p), brute_force_gotoh(p))


class TestRelationToEquation1:
    """Semantic relationships between the textbook and the paper's
    recurrences."""

    def test_paper_example_same_optimum(self, figure2_problem):
        """On §2.1's example both formulations find score 6."""
        assert gotoh_matrix(figure2_problem).max() == 6.0
        assert full_matrix(figure2_problem).max() == 6.0

    def test_gapless_alignments_identical(self, dna_scoring):
        """With gaps priced out, both recurrences reduce to the same
        gap-free local alignment."""
        ex, _ = dna_scoring
        gaps = GapPenalties(1000.0, 1000.0)
        rng = np.random.default_rng(6)
        for _ in range(10):
            s1 = rng.integers(0, 4, 15).astype(np.int8)
            s2 = rng.integers(0, 4, 15).astype(np.int8)
            p = AlignmentProblem(s1, s2, ex, gaps)
            assert gotoh_matrix(p).max() == full_matrix(p).max()

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_gotoh_upper_bounds_equation1(self, data, dna_scoring):
        """Property: every Equation 1 alignment is also a valid textbook
        alignment (gaps from row i-1/column j-1 are expressible as
        textbook gap chains of the same cost), so Gotoh's optimum is an
        upper bound for Equation 1's."""
        ex, gaps = dna_scoring
        s1 = np.array(data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=14)), dtype=np.int8)
        s2 = np.array(data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=14)), dtype=np.int8)
        p = AlignmentProblem(s1, s2, ex, gaps)
        assert gotoh_matrix(p).max() >= full_matrix(p).max()

    def test_top_alignments_differ_from_equation1(self, dna_scoring):
        """Why ``gotoh`` is not in the engine table: it is a different
        recurrence, so as an engine it finds different top alignments."""
        from repro.core import find_top_alignments

        ex, gaps = dna_scoring
        seq = Sequence(REPRODUCER, DNA)
        exact, _ = find_top_alignments(seq, 3, ex, gaps)
        gotoh, _ = find_top_alignments(seq, 3, ex, gaps, engine=GotohEngine())
        assert [(a.r, a.score) for a in exact] != [(a.r, a.score) for a in gotoh]


class TestEngineInterface:
    def test_last_row_shape(self, figure2_problem):
        row = GotohEngine().last_row(figure2_problem)
        assert row.shape == (figure2_problem.cols + 1,)
        assert row[0] == 0.0

    def test_score_is_global_max(self, figure2_problem):
        assert GotohEngine().score(figure2_problem) == 6.0

    def test_empty(self, dna_scoring):
        ex, gaps = dna_scoring
        p = AlignmentProblem(np.array([], dtype=np.int8), DNA.encode("AC"), ex, gaps)
        assert np.array_equal(GotohEngine().last_row(p), np.zeros(3))

    def test_override_respected(self, dna_scoring):
        from repro.core import DenseOverrideTriangle

        ex, gaps = dna_scoring
        tri = DenseOverrideTriangle(8)
        tri.mark([(i, i + 4) for i in range(1, 5)])
        codes = DNA.encode("ATGCATGC")
        p = AlignmentProblem(codes[:4], codes[4:], ex, gaps, tri.view_for_split(4))
        H = gotoh_matrix(p)
        for i in range(1, 5):
            assert H[i, i] == 0.0
