"""Tests for the shared-memory speculative scheduler.

Equality with the sequential tops under every thread count is a point
of the conformance lattice (``tests/conformance``); error propagation
and checkpoint resume are in ``tests/core/test_policies.py``.
"""

import pytest

from repro.core import TopAlignmentSession
from repro.parallel import ThreadedTopAlignmentRunner, find_top_alignments_threaded
from tests.conformance.lattice import key


class TestThreadedEquivalence:
    def test_min_score(self, tandem_dna, dna_scoring):
        ex, gaps = dna_scoring
        got, _ = find_top_alignments_threaded(
            tandem_dna, 10, ex, gaps, n_threads=2, min_score=5.0
        )
        assert len(got) == 3 and all(a.score > 5.0 for a in got)

    def test_repeated_runs_deterministic(self, small_repeat_protein, protein_scoring):
        """Thread scheduling noise must never change the output."""
        ex, gaps = protein_scoring
        runs = [
            key(
                find_top_alignments_threaded(
                    small_repeat_protein, 5, ex, gaps, n_threads=4
                )[0]
            )
            for _ in range(3)
        ]
        assert runs[0] == runs[1] == runs[2]


class TestRunnerValidation:
    def test_bad_k(self, tandem_dna, dna_scoring):
        session = TopAlignmentSession(tandem_dna, *dna_scoring)
        with pytest.raises(ValueError):
            ThreadedTopAlignmentRunner(session, 0)

    def test_bad_thread_count(self, tandem_dna, dna_scoring):
        session = TopAlignmentSession(tandem_dna, *dna_scoring)
        with pytest.raises(ValueError):
            ThreadedTopAlignmentRunner(session, 1, n_threads=0)

    def test_stats_accumulated(self, small_repeat_protein, protein_scoring):
        session = TopAlignmentSession(small_repeat_protein, *protein_scoring)
        runner = ThreadedTopAlignmentRunner(session, 4, n_threads=2)
        tops, stats = runner.run()
        assert stats.tracebacks == len(tops) == 4
        assert stats.alignments > 0 and stats.engine_seconds > 0
