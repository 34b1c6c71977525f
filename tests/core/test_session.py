"""Tests for resumable top-alignment sessions."""

import pytest

from repro.core import find_top_alignments
from repro.core.session import TopAlignmentSession
from repro.scoring import GapPenalties, blosum62
from repro.sequences import (
    DNA,
    RepeatSpec,
    implant_repeats,
    pseudo_titin,
    tandem_repeat_sequence,
)


def _key(alignments):
    return [(a.index, a.r, a.score, a.pairs) for a in alignments]


class TestSession:
    def test_incremental_equals_batch(self, small_repeat_protein, protein_scoring):
        """extend(3) + extend(3) must equal find_top_alignments(k=6)."""
        ex, gaps = protein_scoring
        expected, _ = find_top_alignments(small_repeat_protein, 6, ex, gaps)
        session = TopAlignmentSession(small_repeat_protein, ex, gaps)
        first = session.extend(3)
        second = session.extend(3)
        assert _key(first + second) == _key(expected)
        assert _key(session.alignments) == _key(expected)

    def test_extend_returns_only_new(self, tandem_dna, dna_scoring):
        ex, gaps = dna_scoring
        session = TopAlignmentSession(tandem_dna, ex, gaps)
        first = session.extend(2)
        second = session.extend(1)
        assert len(first) == 2 and len(second) == 1
        assert second[0].index == 2

    def test_incremental_work_is_cheaper(self, small_repeat_protein, protein_scoring):
        """The second batch must not repay the first pass."""
        ex, gaps = protein_scoring
        session = TopAlignmentSession(small_repeat_protein, ex, gaps)
        session.extend(3)
        before = session.stats.alignments
        session.extend(3)
        added = session.stats.alignments - before
        m = len(small_repeat_protein)
        assert added < m - 1  # far less than a fresh first pass

    def test_exhaustion(self, dna_scoring):
        ex, gaps = dna_scoring
        seq = tandem_repeat_sequence("ACG", 3)
        session = TopAlignmentSession(seq, ex, gaps)
        everything = session.extend(100)
        assert session.exhausted
        assert session.extend(5) == []
        expected, _ = find_top_alignments(seq, 100, ex, gaps)
        assert _key(everything) == _key(expected)

    def test_len(self, tandem_dna, dna_scoring):
        ex, gaps = dna_scoring
        session = TopAlignmentSession(tandem_dna, ex, gaps)
        assert len(session) == 0
        session.extend(2)
        assert len(session) == 2

    def test_k_validation(self, tandem_dna, dna_scoring):
        ex, gaps = dna_scoring
        session = TopAlignmentSession(tandem_dna, ex, gaps)
        with pytest.raises(ValueError):
            session.extend(0)

    def test_extend_until_score(self, tandem_dna, dna_scoring):
        ex, gaps = dna_scoring
        session = TopAlignmentSession(tandem_dna, ex, gaps)
        got = session.extend_until(7.0)
        assert [a.score for a in got] == [8.0, 8.0, 8.0]
        # Original threshold restored: weaker alignments still reachable.
        assert session.min_score == 0.0
        more = session.extend(2)
        assert all(a.score <= 8.0 for a in more)

    def test_min_score_constructor(self, tandem_dna, dna_scoring):
        ex, gaps = dna_scoring
        session = TopAlignmentSession(tandem_dna, ex, gaps, min_score=7.0)
        got = session.extend(10)
        assert len(got) == 3
        assert session.exhausted


class TestOneDriver:
    """The session *is* the driver: chunking and entry point change nothing."""

    @pytest.mark.parametrize("group", [1, 8])
    def test_chunked_extend_repays_no_alignments(self, group):
        """extend(1) x k keeps its heap, so it aligns exactly what one
        extend(k) aligns (the service checkpoints per acceptance)."""
        seq = pseudo_titin(80, seed=3)
        ex, gaps = blosum62(), GapPenalties(8, 1)
        one_shot = TopAlignmentSession(seq, ex, gaps, group=group)
        one_shot.extend(5)
        chunked = TopAlignmentSession(seq, ex, gaps, group=group)
        for _ in range(5):
            chunked.extend(1)
        assert _key(chunked.alignments) == _key(one_shot.alignments)
        assert chunked.stats.alignments <= one_shot.stats.alignments
        assert chunked.stats.cells == one_shot.stats.cells

    @pytest.mark.parametrize("group", [1, 8])
    def test_session_prunes_against_min_score(self, group, dna_scoring):
        """A session configures the prune floor and keeps the live
        threshold exactly as a one-shot run does: same cells, same
        pruned lanes (it used to prune against floor 0)."""
        ex, gaps = dna_scoring
        seq = implant_repeats(
            260,
            RepeatSpec(unit_length=90, copies=2, substitution_rate=0.04),
            DNA,
            seed=5,
        ).sequence
        expected, one_shot = find_top_alignments(
            seq, 4, ex, gaps, engine="vector", group=group, min_score=140.0
        )
        session = TopAlignmentSession(
            seq, ex, gaps, engine="vector", group=group, min_score=140.0
        )
        got = session.extend(4)
        assert _key(got) == _key(expected) and expected
        assert one_shot.pruned_lanes > 0
        assert session.stats.pruned_lanes == one_shot.pruned_lanes
        assert session.stats.cells == one_shot.cells

    def test_extend_until_leaves_weaker_alignments_reachable(self):
        seq = pseudo_titin(80, seed=3)
        ex, gaps = blosum62(), GapPenalties(8, 1)
        expected, _ = find_top_alignments(seq, 4, ex, gaps)
        bar = expected[1].score  # strictly above: only the first clears it
        session = TopAlignmentSession(seq, ex, gaps)
        strong = session.extend_until(bar)
        assert 1 <= len(strong) < 4 and all(a.score > bar for a in strong)
        assert not session.exhausted
        session.extend(4 - len(strong))
        assert _key(session.alignments) == _key(expected)

    def test_group_validation(self, tandem_dna, dna_scoring):
        ex, gaps = dna_scoring
        with pytest.raises(ValueError, match="group"):
            TopAlignmentSession(tandem_dna, ex, gaps, group=0)
