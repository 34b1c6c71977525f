"""Tests for the query-profile cache and its engine plumbing."""

import numpy as np
import pytest
from benchmarks.comparators import StripedEngine

from repro.align import (
    AlignmentProblem,
    LanesEngine,
    ProfileView,
    QueryProfile,
    VectorEngine,
)
from repro.align.profile import NEG
from repro.core import DenseOverrideTriangle
from repro.scoring import GapPenalties, blosum62
from repro.sequences.workloads import pseudo_titin

ENGINES = [
    VectorEngine(),
    LanesEngine(lanes=4, dtype="float64"),
    LanesEngine(lanes=4, dtype="int32"),
    LanesEngine(lanes=4, dtype="int16"),
    StripedEngine(stripe=7),
]


@pytest.fixture(scope="module")
def scoring():
    return blosum62(), GapPenalties(8, 1)


@pytest.fixture(scope="module")
def codes():
    return pseudo_titin(60, seed=2).codes


class TestQueryProfile:
    def test_matches_direct_gather(self, codes, scoring):
        exchange, _ = scoring
        profile = QueryProfile(codes, exchange)
        expected = exchange.scores[:, codes.astype(np.int64)]
        assert np.array_equal(profile.scores, expected)
        assert profile.scores.shape == (exchange.scores.shape[0], codes.size)

    def test_views_are_zero_copy_slices(self, codes, scoring):
        exchange, _ = scoring
        profile = QueryProfile(codes, exchange)
        view = profile.view(10, 40)
        assert view.cols == 30
        assert view.scores.base is not None
        assert np.shares_memory(view.scores, profile.scores)
        assert np.array_equal(view.scores, profile.scores[:, 10:40])
        suffix = profile.suffix(25)
        assert suffix.cols == codes.size - 25
        assert np.array_equal(suffix.scores, profile.scores[:, 25:])

    def test_integer_scores_cached(self, codes, scoring):
        """The lane table — narrow, row-shifted, sentinel column first —
        is built once per (dtype, ext) and kept on the profile."""
        exchange, _ = scoring
        profile = QueryProfile(codes, exchange)
        ints = profile.lane_table("int16", 1)
        assert ints.dtype == np.int16 and not ints.flags.writeable
        assert ints is profile.lane_table("int16", 1)  # computed once
        assert (ints[:, 0] == NEG["int16"]).all()
        assert np.array_equal(ints[:, 1:], profile.scores + 1)
        wide = profile.lane_table("float64", 0.5)
        assert wide.dtype == np.float64 and np.isneginf(wide[:, 0]).all()
        assert np.array_equal(wide[:, 1:], profile.scores + 0.5)

    def test_bounds_validated(self, codes, scoring):
        exchange, _ = scoring
        profile = QueryProfile(codes, exchange)
        with pytest.raises(ValueError):
            profile.view(-1, 10)
        with pytest.raises(ValueError):
            profile.view(10, 5)
        with pytest.raises(ValueError):
            profile.view(0, codes.size + 1)

    def test_problem_width_mismatch(self, codes, scoring):
        exchange, gaps = scoring
        profile = QueryProfile(codes, exchange)
        with pytest.raises(ValueError, match="profile window"):
            AlignmentProblem(
                codes[:10], codes[10:], exchange, gaps,
                profile=profile.suffix(20),
            )


class TestEnginesWithProfile:
    def _problem_pair(self, codes, scoring, r, override=None):
        exchange, gaps = scoring
        profile = QueryProfile(codes, exchange)
        plain = AlignmentProblem(codes[:r], codes[r:], exchange, gaps, override)
        cached = AlignmentProblem(
            codes[:r], codes[r:], exchange, gaps, override,
            profile=profile.suffix(r),
        )
        return plain, cached

    @pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.describe())
    def test_identical_rows(self, engine, codes, scoring):
        for r in (1, 17, 30, codes.size - 1):
            plain, cached = self._problem_pair(codes, scoring, r)
            assert np.array_equal(engine.last_row(cached), engine.last_row(plain))

    @pytest.mark.parametrize("engine", ENGINES, ids=lambda e: e.describe())
    def test_identical_rows_with_override(self, engine, codes, scoring):
        triangle = DenseOverrideTriangle(codes.size)
        triangle.mark(tuple((i, i + 30) for i in range(5, 15)))
        r = 25
        override = triangle.view_for_split(r)
        plain, cached = self._problem_pair(codes, scoring, r, override)
        assert np.array_equal(engine.last_row(cached), engine.last_row(plain))

    def test_lane_batches_with_mixed_shapes(self, codes, scoring):
        """Scratch buffers are reused across differently-shaped batches
        without contaminating later results."""
        engine = LanesEngine(lanes=4, dtype="int16")
        exchange, gaps = scoring
        profile = QueryProfile(codes, exchange)
        for splits in ((30, 40), (5, 50, 29, 12), (45,), (20, 21, 22, 23)):
            problems = [
                AlignmentProblem(
                    codes[:r], codes[r:], exchange, gaps,
                    profile=profile.suffix(r),
                )
                for r in splits
            ]
            rows = engine.last_rows_batch(problems)
            for r, row in zip(splits, rows):
                plain = AlignmentProblem(codes[:r], codes[r:], exchange, gaps)
                assert np.array_equal(row, VectorEngine().last_row(plain))

    def test_substitution_rows_fallback(self, codes, scoring):
        """Without a profile the problem re-gathers; results agree."""
        plain, cached = self._problem_pair(codes, scoring, 20)
        assert np.array_equal(plain.substitution_rows(), cached.substitution_rows())
