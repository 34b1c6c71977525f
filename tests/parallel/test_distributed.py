"""End-to-end tests of the distributed master/slave driver.

Kept small: each test spawns real processes on what may be a
single-core machine.  Equality with the sequential tops is a point of
the conformance lattice (``tests/conformance``; forked slaves in
``tests/core/test_policies.py``).
"""

import pytest

from repro.parallel import find_top_alignments_distributed


class TestDistributed:
    def test_stats_counters(self, tandem_dna, dna_scoring):
        ex, gaps = dna_scoring
        tops, stats = find_top_alignments_distributed(
            tandem_dna, 2, ex, gaps, n_slaves=2
        )
        assert stats.tracebacks == len(tops) == 2
        # Fill time is measured on the slaves and shipped back.
        assert stats.alignments > 0 and stats.engine_seconds > 0

    def test_validation(self, tandem_dna, dna_scoring):
        ex, gaps = dna_scoring
        with pytest.raises(ValueError):
            find_top_alignments_distributed(tandem_dna, 1, ex, gaps, n_slaves=0)
        with pytest.raises(ValueError):
            find_top_alignments_distributed(
                tandem_dna, 1, ex, gaps, n_slaves=1, threads_per_slave=0
            )
