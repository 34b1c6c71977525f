"""Tests for the scalar reference engine against the paper and a brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import AlignmentProblem, ScalarEngine, full_matrix
from repro.scoring import GapPenalties, match_mismatch
from repro.sequences import DNA

from ..conftest import brute_force_matrix

#: Figure 2's matrix (CTTACAGA horizontal, ATTGCGA vertical).  The
#: published figure's last row is garbled by PDF text extraction; this
#: is the unique matrix satisfying Equation 1, verified against the
#: brute-force oracle, and it contains the paper's score-6 optimum at
#: the A/A cell in the bottom-right region with traceback
#: TTACAGA / TTGC-GA.
FIGURE2 = np.array(
    [
        [0, 0, 0, 2, 0, 2, 0, 2],
        [0, 2, 2, 0, 1, 0, 1, 0],
        [0, 2, 4, 1, 0, 0, 0, 0],
        [0, 0, 1, 3, 0, 0, 2, 0],
        [2, 0, 0, 0, 5, 0, 0, 1],
        [0, 1, 0, 0, 0, 4, 4, 0],
        [0, 0, 0, 2, 0, 4, 3, 6],
    ],
    dtype=np.float64,
)


class TestFigure2:
    def test_full_matrix_matches_paper(self, figure2_problem):
        matrix = full_matrix(figure2_problem)
        assert np.array_equal(matrix[1:, 1:], FIGURE2)

    def test_boundaries_are_zero(self, figure2_problem):
        matrix = full_matrix(figure2_problem)
        assert not matrix[0, :].any()
        assert not matrix[:, 0].any()

    def test_best_score_is_six(self, figure2_problem):
        assert full_matrix(figure2_problem).max() == 6.0

    def test_brute_force_agrees(self, figure2_problem):
        assert np.array_equal(
            full_matrix(figure2_problem), brute_force_matrix(figure2_problem)
        )

    def test_scalar_last_row(self, figure2_problem):
        row = ScalarEngine().last_row(figure2_problem)
        assert np.array_equal(row[1:], FIGURE2[-1])


class TestEdgeCases:
    def test_empty_vertical(self, dna_scoring):
        ex, gaps = dna_scoring
        p = AlignmentProblem(np.array([], dtype=np.int8), DNA.encode("ACGT"), ex, gaps)
        assert np.array_equal(ScalarEngine().last_row(p), np.zeros(5))

    def test_empty_horizontal(self, dna_scoring):
        ex, gaps = dna_scoring
        p = AlignmentProblem(DNA.encode("ACGT"), np.array([], dtype=np.int8), ex, gaps)
        assert np.array_equal(ScalarEngine().last_row(p), np.zeros(1))

    def test_single_cell_match(self, dna_scoring):
        ex, gaps = dna_scoring
        p = AlignmentProblem(DNA.encode("A"), DNA.encode("A"), ex, gaps)
        assert ScalarEngine().last_row(p)[1] == 2.0

    def test_single_cell_mismatch_clamps_to_zero(self, dna_scoring):
        ex, gaps = dna_scoring
        p = AlignmentProblem(DNA.encode("A"), DNA.encode("C"), ex, gaps)
        assert ScalarEngine().last_row(p)[1] == 0.0

    def test_score_helper(self, figure2_problem):
        assert ScalarEngine().score(figure2_problem) == 6.0

    def test_all_values_nonnegative(self, dna_scoring):
        ex, gaps = dna_scoring
        rng = np.random.default_rng(0)
        p = AlignmentProblem(
            rng.integers(0, 4, 20).astype(np.int8),
            rng.integers(0, 4, 25).astype(np.int8),
            ex,
            gaps,
        )
        assert (full_matrix(p) >= 0).all()


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    match=st.integers(1, 8),
    mismatch=st.integers(-5, 0),
    open_=st.integers(0, 6),
    ext=st.integers(0, 3),
)
def test_scalar_matches_brute_force(data, rows, cols, match, mismatch, open_, ext):
    """Property: the Figure 3 recurrence equals the direct Equation 1."""
    ex = match_mismatch(DNA, float(match), float(mismatch), wildcard_score=None)
    gaps = GapPenalties(float(open_), float(ext))
    s1 = np.array(data.draw(st.lists(st.integers(0, 4), min_size=rows, max_size=rows)), dtype=np.int8)
    s2 = np.array(data.draw(st.lists(st.integers(0, 4), min_size=cols, max_size=cols)), dtype=np.int8)
    p = AlignmentProblem(s1, s2, ex, gaps)
    expected = brute_force_matrix(p)
    assert np.array_equal(full_matrix(p), expected)
    assert np.array_equal(ScalarEngine().last_row(p)[1:], expected[-1, 1:])


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    rows=st.integers(1, 14),
    cols=st.integers(1, 14),
    with_profile=st.booleans(),
)
def test_full_matrix_with_overrides_matches_scalar_rows(data, rows, cols, with_profile):
    """Property: every row of ``full_matrix`` equals the scalar engine's
    bottom row of that row-prefix, override masks included (tall, wide,
    with and without a shared profile)."""
    from repro.align import QueryProfile

    ex = match_mismatch(DNA, 3.0, -2.0, wildcard_score=None)
    gaps = GapPenalties(3.0, 1.0)
    codes = np.array(
        data.draw(st.lists(st.integers(0, 3), min_size=rows + cols, max_size=rows + cols)),
        dtype=np.int8,
    )
    marks = np.array(
        data.draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
    ).reshape(rows, cols)

    class Masks:
        def row_mask(self, y):
            return marks[y - 1] if marks[y - 1].any() else None

    profile = QueryProfile(codes, ex).suffix(rows) if with_profile else None
    p = AlignmentProblem(codes[:rows], codes[rows:], ex, gaps, Masks(), profile)
    matrix = full_matrix(p)
    assert matrix.shape == (rows + 1, cols + 1)
    for y in range(1, rows + 1):
        prefix = AlignmentProblem(codes[:y], codes[rows:], ex, gaps, Masks())
        assert np.array_equal(matrix[y], ScalarEngine().last_row(prefix))
