"""Static neighbour-group scheduling (the paper's SSE/SSE2 mode, §5.1).

The schedule is figure code — ``static_group_schedule`` in
``benchmarks/bench_speculation.py``, its only user — but its claim is
the repo-wide one: the tops are the sequential algorithm's.
"""

import importlib
import pathlib
import sys

import pytest

from repro.align import LanesEngine
from repro.core import TopAlignmentState, find_top_alignments

_BENCHMARKS = str(pathlib.Path(__file__).resolve().parents[2] / "benchmarks")


@pytest.fixture(scope="module")
def schedule():
    # The bench modules import their own ``conftest`` by bare name.
    sys.path.append(_BENCHMARKS)
    try:
        return importlib.import_module("bench_speculation").static_group_schedule
    finally:
        sys.path.remove(_BENCHMARKS)


def _key(alignments):
    return [(a.index, a.r, a.score, a.pairs) for a in alignments]


def _grouped(schedule, sequence, k, exchange, gaps, *, engine="lanes", **kwargs):
    state = TopAlignmentState(sequence, exchange, gaps, engine=engine)
    wasted = schedule(state, k, **kwargs)
    return state, wasted


class TestGroupedEquivalence:
    @pytest.mark.parametrize("group_size", [1, 2, 4, 8])
    def test_matches_sequential(
        self, schedule, group_size, small_repeat_protein, protein_scoring
    ):
        ex, gaps = protein_scoring
        expected, _ = find_top_alignments(small_repeat_protein, 6, ex, gaps)
        state, _ = _grouped(
            schedule, small_repeat_protein, 6, ex, gaps, group_size=group_size
        )
        assert _key(state.found) == _key(expected)

    @pytest.mark.parametrize(
        "engine",
        [
            "lanes",
            pytest.param(LanesEngine(lanes=4, dtype="int16"), id="lanes-sse"),
            pytest.param(LanesEngine(lanes=8, dtype="int16"), id="lanes-sse2"),
            "vector",
        ],
    )
    def test_matches_sequential_any_engine(
        self, schedule, engine, tandem_dna, dna_scoring
    ):
        ex, gaps = dna_scoring
        expected, _ = find_top_alignments(tandem_dna, 3, ex, gaps)
        state, _ = _grouped(
            schedule, tandem_dna, 3, ex, gaps, group_size=4, engine=engine
        )
        assert _key(state.found) == _key(expected)

    def test_speculation_counter(self, schedule, small_repeat_protein, protein_scoring):
        """Groups recompute already-current members — counted as waste."""
        ex, gaps = protein_scoring
        state, wasted = _grouped(
            schedule, small_repeat_protein, 6, ex, gaps, group_size=4
        )
        # Waste exists but is a small fraction of total work (§5.1's
        # <0.70 % holds only at titin scale; here we just bound it).
        assert 0 <= wasted < state.stats.alignments

    def test_min_score(self, schedule, tandem_dna, dna_scoring):
        ex, gaps = dna_scoring
        state, _ = _grouped(
            schedule, tandem_dna, 10, ex, gaps, group_size=4, min_score=5.0
        )
        assert len(state.found) == 3
