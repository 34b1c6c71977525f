"""Tests for the closed engine table and AlignmentProblem plumbing."""

import numpy as np
import pytest

from repro.align import (
    ENGINE_NAMES,
    AlignmentProblem,
    LanesEngine,
    ScalarEngine,
    VectorEngine,
    get_engine,
)
from repro.scoring import GapPenalties
from repro.sequences import DNA, Sequence


class TestRegistry:
    def test_builtins_registered(self):
        for name in ENGINE_NAMES:
            assert get_engine(name).name == name

    def test_get_engine_by_name(self):
        assert isinstance(get_engine("scalar"), ScalarEngine)
        assert isinstance(get_engine("vector"), VectorEngine)
        assert isinstance(get_engine("lanes"), LanesEngine)

    def test_get_engine_passthrough(self):
        engine = VectorEngine()
        assert get_engine(engine) is engine

    def test_unknown_engine(self):
        with pytest.raises(KeyError, match="unknown engine"):
            get_engine("quantum")


class TestAlignmentProblem:
    def test_from_sequences_with_strings(self, dna_scoring):
        ex, gaps = dna_scoring
        p = AlignmentProblem.from_sequences("ACG", "ACGT", ex, gaps)
        assert p.rows == 3 and p.cols == 4 and p.cells == 12

    def test_from_sequences_with_sequence_objects(self, dna_scoring):
        ex, gaps = dna_scoring
        p = AlignmentProblem.from_sequences(
            Sequence("ACG", DNA), Sequence("ACGT", DNA), ex, gaps
        )
        assert p.rows == 3

    def test_codes_coerced_to_int8(self, dna_scoring):
        ex, gaps = dna_scoring
        p = AlignmentProblem(
            np.array([0, 1], dtype=np.int64), np.array([2], dtype=np.int64), ex, gaps
        )
        assert p.seq1.dtype == np.int8 and p.seq2.dtype == np.int8

    def test_default_score_method(self, figure2_problem):
        assert get_engine("vector").score(figure2_problem) == 6.0

    def test_default_batch_loops(self, figure2_problem):
        rows = get_engine("scalar").last_rows_batch([figure2_problem] * 3)
        assert len(rows) == 3
        assert all(np.array_equal(r, rows[0]) for r in rows)
