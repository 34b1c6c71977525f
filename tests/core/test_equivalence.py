"""The paper's central claim at named points: the O(n³) search computes
*exactly the same top alignments* as the original O(n⁴) algorithm.

``new == old quartic`` is §3's correctness statement.  The conformance
harness (``tests/conformance``) checks it on every short input it
draws, through :func:`tests.conformance.lattice.reference`; these are
the historical fixed cases.
"""

import pytest
from hypothesis import given, settings

from repro.core import find_top_alignments, old_find_top_alignments
from repro.sequences import DNA, Sequence
from tests.conformance.lattice import BLOSUM62, Config, Search, check, key, searches


def _old(search):
    tops, _ = old_find_top_alignments(
        search.sequence, search.k, search.exchange, search.gaps,
        min_score=search.min_score,
    )
    return key(tops)


class TestNewEqualsOld:
    def test_figure4(self):
        check(Search("ATGCATGCATGC", k=3), Config())

    def test_protein_workload(self, small_repeat_protein):
        search = Search(small_repeat_protein.text, True, BLOSUM62, k=6)
        assert _old(search) == key(check(search, Config()).tops)

    def test_exhaustion_matches(self):
        check(Search("ACGACGACG", k=50), Config())

    def test_min_score_matches(self):
        check(Search("ATGCATGCATGC", k=10, min_score=5.0), Config())

    def test_old_validates_inputs(self, tandem_dna, dna_scoring):
        ex, gaps = dna_scoring
        with pytest.raises(ValueError):
            old_find_top_alignments(tandem_dna, 0, ex, gaps)
        with pytest.raises(ValueError):
            old_find_top_alignments(Sequence("A", DNA), 1, ex, gaps)

    def test_new_does_far_fewer_alignments(self, small_repeat_protein, protein_scoring):
        """The whole point of §3: the queue heuristic prunes realignments."""
        ex, gaps = protein_scoring
        _, new_stats = find_top_alignments(small_repeat_protein, 6, ex, gaps)
        _, old_stats = old_find_top_alignments(small_repeat_protein, 6, ex, gaps)
        assert new_stats.alignments < old_stats.alignments / 2

    @settings(max_examples=15, deadline=None)
    @given(search=searches(max_size=24, max_k=6))
    def test_property_random_dna(self, search):
        """Randomised new == old at the default configuration (any
        alphabet and scoring the harness draws, short enough for old)."""
        check(search, Config())

    @settings(max_examples=10, deadline=None)
    @given(search=searches(max_size=18, max_k=4))
    def test_property_random_scoring(self, search):
        """new == old for the plainest configuration too."""
        check(search, Config(engine="scalar", group=1, prune=False))
