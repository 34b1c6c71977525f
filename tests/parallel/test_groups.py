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
from repro.core import TopAlignmentState
from tests.conformance.lattice import BLOSUM62, Search, key, reference

_BENCHMARKS = str(pathlib.Path(__file__).resolve().parents[2] / "benchmarks")


@pytest.fixture(scope="module")
def schedule():
    # The bench modules import their own ``conftest`` by bare name.
    sys.path.append(_BENCHMARKS)
    try:
        return importlib.import_module("bench_speculation").static_group_schedule
    finally:
        sys.path.remove(_BENCHMARKS)


def _grouped(schedule, search, *, engine="lanes", **kwargs):
    state = TopAlignmentState(
        search.sequence, search.exchange, search.gaps, engine=engine
    )
    wasted = schedule(state, search.k, **kwargs)
    return state, wasted


_FIGURE4 = Search("ATGCATGCATGC", k=3)


@pytest.fixture(scope="module")
def protein(small_repeat_protein):
    return Search(small_repeat_protein.text, True, BLOSUM62, k=6)


class TestGroupedEquivalence:
    @pytest.mark.parametrize("group_size", [1, 2, 4, 8])
    def test_matches_sequential(self, schedule, group_size, protein):
        state, _ = _grouped(schedule, protein, group_size=group_size)
        assert key(state.found) == reference(protein)

    @pytest.mark.parametrize(
        "engine",
        [
            "lanes",
            pytest.param(LanesEngine(lanes=4, dtype="int16"), id="lanes-sse"),
            pytest.param(LanesEngine(lanes=8, dtype="int16"), id="lanes-sse2"),
            "vector",
        ],
    )
    def test_matches_sequential_any_engine(self, schedule, engine):
        state, _ = _grouped(schedule, _FIGURE4, group_size=4, engine=engine)
        assert key(state.found) == reference(_FIGURE4)

    def test_speculation_counter(self, schedule, protein):
        """Groups recompute already-current members — counted as waste."""
        state, wasted = _grouped(schedule, protein, group_size=4)
        # Waste exists but is a small fraction of total work (§5.1's
        # <0.70 % holds only at titin scale; here we just bound it).
        assert 0 <= wasted < state.stats.alignments

    def test_min_score(self, schedule):
        search = Search("ATGCATGCATGC", k=10, min_score=5.0)
        state, _ = _grouped(schedule, search, group_size=4, min_score=5.0)
        assert key(state.found) == reference(search)
        assert len(state.found) == 3
