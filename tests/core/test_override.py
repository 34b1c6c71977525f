"""Tests for the override triangle (both implementations)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import AlignmentProblem, ScalarEngine, full_matrix
from repro.core import DenseOverrideTriangle, SparseOverrideTriangle
from repro.sequences import DNA

IMPLS = [DenseOverrideTriangle, SparseOverrideTriangle]


@pytest.mark.parametrize("impl", IMPLS)
class TestTriangleBasics:
    def test_starts_empty(self, impl):
        tri = impl(10)
        assert tri.marked_count == 0
        assert tri.version == 0
        assert list(tri) == []

    def test_mark_and_contains(self, impl):
        tri = impl(10)
        tri.mark([(1, 5), (2, 6)])
        assert tri.contains(1, 5) and tri.contains(2, 6)
        assert not tri.contains(1, 6)
        assert tri.marked_count == 2

    def test_version_increments_per_mark_call(self, impl):
        tri = impl(10)
        tri.mark([(1, 5)])
        tri.mark([(2, 6)])
        assert tri.version == 2

    def test_iteration_sorted_pairs(self, impl):
        tri = impl(10)
        tri.mark([(3, 7), (1, 5), (1, 9)])
        assert list(tri) == [(1, 5), (1, 9), (3, 7)]

    def test_duplicate_mark_idempotent_count(self, impl):
        tri = impl(10)
        tri.mark([(1, 5)])
        tri.mark([(1, 5)])
        assert tri.marked_count == 1

    def test_rejects_out_of_triangle(self, impl):
        tri = impl(10)
        with pytest.raises(ValueError):
            tri.mark([(5, 5)])  # i == j
        with pytest.raises(ValueError):
            tri.mark([(0, 3)])
        with pytest.raises(ValueError):
            tri.mark([(1, 11)])

    def test_rejects_bad_length(self, impl):
        with pytest.raises(ValueError):
            impl(0)

    def test_row_mask_none_when_row_clear(self, impl):
        tri = impl(10)
        tri.mark([(2, 6)])
        assert tri.row_mask(1, 2, 10) is None

    def test_row_mask_none_when_range_misses(self, impl):
        tri = impl(10)
        tri.mark([(2, 6)])
        assert tri.row_mask(2, 7, 10) is None

    def test_row_mask_alignment(self, impl):
        tri = impl(10)
        tri.mark([(2, 6), (2, 9)])
        mask = tri.row_mask(2, 5, 10)  # columns 5..10
        assert mask is not None
        assert np.array_equal(mask, [False, True, False, False, True, False])


class TestSplitView:
    def test_view_maps_local_to_global(self):
        tri = DenseOverrideTriangle(12)
        tri.mark([(2, 7)])
        view = tri.view_for_split(4)  # rows 1..4, cols 5..12 (local x: j-4)
        mask = view.row_mask(2)
        assert mask is not None
        assert mask.sum() == 1
        assert mask[7 - 4 - 1]  # local index of global column 7

    def test_view_bounds(self):
        tri = DenseOverrideTriangle(12)
        with pytest.raises(ValueError):
            tri.view_for_split(0)
        with pytest.raises(ValueError):
            tri.view_for_split(12)


class TestOverrideSemantics:
    def test_marked_cells_become_zero(self, dna_scoring):
        """§3: entries in a top alignment are overridden with zero."""
        ex, gaps = dna_scoring
        tri = DenseOverrideTriangle(8)
        # Split r=4 of ATGCATGC; mark the perfect diagonal (i, i+4).
        tri.mark([(i, i + 4) for i in range(1, 5)])
        codes = DNA.encode("ATGCATGC")
        p = AlignmentProblem(codes[:4], codes[4:], ex, gaps, tri.view_for_split(4))
        matrix = full_matrix(p)
        for i in range(1, 5):
            assert matrix[i, i] == 0.0

    def test_override_cascades_downstream(self, dna_scoring):
        """Overriding lowers dependent entries to the right and below."""
        ex, gaps = dna_scoring
        codes = DNA.encode("ATGCATGC")
        plain = AlignmentProblem(codes[:4], codes[4:], ex, gaps)
        plain_m = full_matrix(plain)
        tri = DenseOverrideTriangle(8)
        tri.mark([(1, 5)])  # kill the first diagonal cell only
        over = AlignmentProblem(codes[:4], codes[4:], ex, gaps, tri.view_for_split(4))
        over_m = full_matrix(over)
        assert (over_m <= plain_m).all()
        assert over_m[4, 4] < plain_m[4, 4]

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_scores_monotone_under_growing_triangle(self, data, dna_scoring):
        """Property: a superset triangle never raises any matrix value —
        the invariant that makes stale queue scores upper bounds."""
        ex, gaps = dna_scoring
        m = data.draw(st.integers(4, 14))
        codes = np.array(
            data.draw(st.lists(st.integers(0, 3), min_size=m, max_size=m)),
            dtype=np.int8,
        )
        r = data.draw(st.integers(1, m - 1))
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(1, r), st.integers(r + 1, m)),
                max_size=6,
                unique=True,
            )
        )
        extra = data.draw(
            st.lists(
                st.tuples(st.integers(1, r), st.integers(r + 1, m)),
                max_size=6,
                unique=True,
            )
        )
        small = DenseOverrideTriangle(m)
        if pairs:
            small.mark(pairs)
        big = DenseOverrideTriangle(m)
        if pairs or extra:
            big.mark(pairs + extra)
        p_small = AlignmentProblem(codes[:r], codes[r:], ex, gaps, small.view_for_split(r))
        p_big = AlignmentProblem(codes[:r], codes[r:], ex, gaps, big.view_for_split(r))
        assert (full_matrix(p_big) <= full_matrix(p_small)).all()

    def test_dense_and_sparse_agree(self, dna_scoring):
        ex, gaps = dna_scoring
        rng = np.random.default_rng(1)
        m = 16
        codes = rng.integers(0, 4, m).astype(np.int8)
        pairs = [(2, 7), (3, 9), (5, 16), (1, 10)]
        dense = DenseOverrideTriangle(m)
        sparse = SparseOverrideTriangle(m)
        dense.mark(pairs)
        sparse.mark(pairs)
        for r in (4, 8, 12):
            pd = AlignmentProblem(codes[:r], codes[r:], ex, gaps, dense.view_for_split(r))
            ps = AlignmentProblem(codes[:r], codes[r:], ex, gaps, sparse.view_for_split(r))
            assert np.array_equal(
                ScalarEngine().last_row(pd), ScalarEngine().last_row(ps)
            )

    @pytest.mark.parametrize("cls", [DenseOverrideTriangle, SparseOverrideTriangle])
    def test_row_flags_window_masks(self, cls):
        """``row_flags(i)`` is the whole row over global columns 0..m;
        each split's ``row_mask`` is its window ``r+1..m`` of it."""
        m = 16
        triangle = cls(m)
        triangle.mark([(2, 7), (3, 9), (5, 16), (1, 10), (9, 12)])
        for i in range(1, m + 1):
            flags = triangle.row_flags(i)
            marked = [j for j in range(m + 1) if triangle.contains(i, j)]
            if not marked:
                assert flags is None
                continue
            assert flags.dtype == bool and flags.shape == (m + 1,)
            assert np.flatnonzero(flags).tolist() == marked
            for r in range(max(i, 1), m):
                view = triangle.view_for_split(r)
                assert (view.triangle, view.r) == (triangle, r)
                mask = view.row_mask(i)
                window = flags[r + 1 :]
                assert (mask is None and not window.any()) or np.array_equal(
                    mask, window
                )

    @pytest.mark.parametrize("cls", [DenseOverrideTriangle, SparseOverrideTriangle])
    def test_transposed_view_is_the_split_view_transposed(self, cls):
        """Local cell ``(y, x)`` of the transposed fill is global pair
        ``(x, r + y)``, for any number of its rows."""
        from repro.core.override import TransposedSplitView

        m = 16
        triangle = cls(m)
        triangle.mark([(2, 7), (3, 9), (5, 16), (1, 10), (9, 12), (6, 7)])
        for r in range(1, m):
            for rows in (1, m - r):
                view = TransposedSplitView(triangle, r, rows)
                for y in range(1, rows + 1):
                    want = [triangle.contains(x, r + y) for x in range(1, r + 1)]
                    mask = view.row_mask(y)
                    assert (mask is None and not any(want)) or mask.tolist() == want
        with pytest.raises(ValueError):
            TransposedSplitView(triangle, 4, m - 3)

    def test_lanes_accept_a_provider_with_row_mask_only(self, dna_scoring):
        """``row_mask`` alone is the OverrideProvider protocol; the
        ``triangle``/``r`` a split view also exposes are optional."""
        from repro.align import LanesEngine

        class RowMaskOnly:
            def __init__(self, view):
                self.row_mask = view.row_mask

        ex, gaps = dna_scoring
        rng = np.random.default_rng(2)
        m = 20
        codes = rng.integers(0, 4, m).astype(np.int8)
        triangle = DenseOverrideTriangle(m)
        triangle.mark([(2, 12), (3, 13), (4, 14), (7, 19)])
        splits = (8, 9, 10)
        fast = [
            AlignmentProblem(codes[:r], codes[r:], ex, gaps, triangle.view_for_split(r))
            for r in splits
        ]
        slow = [
            AlignmentProblem(
                codes[:r], codes[r:], ex, gaps, RowMaskOnly(triangle.view_for_split(r))
            )
            for r in splits
        ]
        engine = LanesEngine(lanes=4)
        for a, b, p in zip(engine.last_rows_batch(fast), engine.last_rows_batch(slow), fast):
            assert np.array_equal(a, b)
            assert np.array_equal(a, ScalarEngine().last_row(p))
