"""Tests for the anti-diagonal wavefront comparator (``benchmarks/comparators.py``)."""

import numpy as np
import pytest
from benchmarks.comparators import DiagonalEngine
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import AlignmentProblem, ScalarEngine, full_matrix
from repro.core import DenseOverrideTriangle
from repro.scoring import GapPenalties, match_mismatch
from repro.sequences import DNA


class TestDiagonalEngine:
    def test_figure2_matrix(self, figure2_problem):
        assert np.array_equal(
            DiagonalEngine().full_matrix(figure2_problem),
            full_matrix(figure2_problem),
        )

    def test_last_row_matches_scalar(self, figure2_problem):
        assert np.array_equal(
            DiagonalEngine().last_row(figure2_problem),
            ScalarEngine().last_row(figure2_problem),
        )

    def test_empty(self, dna_scoring):
        ex, gaps = dna_scoring
        p = AlignmentProblem(np.array([], dtype=np.int8), DNA.encode("AC"), ex, gaps)
        assert np.array_equal(DiagonalEngine().last_row(p), np.zeros(3))

    def test_single_cell(self, dna_scoring):
        ex, gaps = dna_scoring
        p = AlignmentProblem(DNA.encode("A"), DNA.encode("A"), ex, gaps)
        assert DiagonalEngine().last_row(p)[1] == 2.0

    def test_override_respected(self, dna_scoring):
        ex, gaps = dna_scoring
        tri = DenseOverrideTriangle(8)
        tri.mark([(i, i + 4) for i in range(1, 5)])
        codes = DNA.encode("ATGCATGC")
        p = AlignmentProblem(codes[:4], codes[4:], ex, gaps, tri.view_for_split(4))
        M = DiagonalEngine().full_matrix(p)
        for i in range(1, 5):
            assert M[i, i] == 0.0
        assert np.array_equal(M, full_matrix(p))

    def test_rectangular_shapes(self, dna_scoring):
        ex, gaps = dna_scoring
        rng = np.random.default_rng(2)
        for rows, cols in [(1, 20), (20, 1), (3, 17), (17, 3)]:
            p = AlignmentProblem(
                rng.integers(0, 4, rows).astype(np.int8),
                rng.integers(0, 4, cols).astype(np.int8),
                ex,
                gaps,
            )
            assert np.array_equal(
                DiagonalEngine().last_row(p), ScalarEngine().last_row(p)
            )

    @settings(max_examples=30, deadline=None)
    @given(
        data=st.data(),
        open_=st.integers(0, 5),
        ext=st.integers(0, 3),
    )
    def test_property_matches_scalar(self, data, open_, ext):
        ex = match_mismatch(DNA, 2.0, -1.0, wildcard_score=None)
        gaps = GapPenalties(float(open_), float(ext))
        s1 = np.array(data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=20)), dtype=np.int8)
        s2 = np.array(data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=20)), dtype=np.int8)
        p = AlignmentProblem(s1, s2, ex, gaps)
        assert np.array_equal(
            DiagonalEngine().last_row(p), ScalarEngine().last_row(p)
        )

    def test_usable_by_top_alignment_driver(self, tandem_dna, dna_scoring):
        from repro.core import find_top_alignments

        ex, gaps = dna_scoring
        base, _ = find_top_alignments(tandem_dna, 3, ex, gaps)
        diag, _ = find_top_alignments(tandem_dna, 3, ex, gaps, engine=DiagonalEngine())
        assert [(a.r, a.pairs) for a in diag] == [(a.r, a.pairs) for a in base]
