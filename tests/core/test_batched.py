"""The speculative lane-batched best-first driver.

That every lane width and requested work type finds the sequential
tops is a point of the conformance lattice (``tests/conformance``);
the cases below are named points of it.  Speculation accounting and
validation are this module's own.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TopAlignmentSession, TopAlignmentState, find_top_alignments
from repro.scoring import GapPenalties
from repro.scoring.blosum import blosum62
from repro.sequences import PROTEIN, pseudo_titin, tandem_repeat_sequence
from tests.conformance.lattice import (
    BLOSUM62,
    DTYPES,
    Config,
    Scoring,
    Search,
    check,
    key,
    searches,
)


def _reference(seq, k, exchange, gaps, min_score=0.0):
    return find_top_alignments(
        seq, k, exchange, gaps, engine="vector", group=1, min_score=min_score
    )


def _titin(length, seed, k, min_score=0.0):
    return Search(pseudo_titin(length, seed=seed).text, True, BLOSUM62, k, min_score)


class TestEquivalence:
    @pytest.mark.parametrize("group", [2, 4, 8])
    @pytest.mark.parametrize("dtype", ["float64", "int32", "int16"])
    def test_titin_identical_to_sequential(self, group, dtype):
        stats = check(_titin(150, 7, 8), Config(dtype=dtype, group=group)).session.stats
        assert stats.group == group
        assert stats.engine == f"lanes[{dtype}]"

    def test_group_kwarg_delegates(self):
        text = tandem_repeat_sequence("MKTAYIAK", 5, alphabet=PROTEIN).text
        out = check(Search(text, True, BLOSUM62, k=4), Config(group=4))
        assert out.session.stats.group == 4

    def test_min_score_respected(self):
        check(_titin(120, 3, 30, min_score=25.0), Config(group=8))

    @settings(max_examples=20, deadline=None)
    @given(
        search=searches(max_size=24, max_k=5),
        group=st.sampled_from([2, 4, 8]),
        dtype=st.sampled_from(DTYPES),
    )
    def test_random_sequences(self, search, group, dtype):
        """Arbitrary inputs: batched == sequential, lane for lane."""
        check(search, Config(dtype=dtype, group=group))

    @settings(max_examples=15, deadline=None)
    @given(
        search=searches(max_size=20, max_k=3),
        match=st.sampled_from([1000, 2500, 9000]),
    )
    def test_near_int16_saturation(self, search, match):
        """Scores toward and past 32767, where SSE shorts would saturate:
        a requested int16 is promoted per sub-batch and stays exact."""
        search = dataclasses.replace(
            search, scoring=Scoring(match=float(match)), min_score=0.0
        )
        stats = check(search, Config(dtype="int16", group=4)).session.stats
        # 9000 per match fits no split of >= 8 residues in int16.
        if match == 9000 and len(search.text) >= 8 and stats.alignments:
            assert stats.engine == "lanes[int32]"


class TestWasteAccounting:
    def test_sequential_never_wastes(self):
        seq = pseudo_titin(120, seed=11)
        exchange, gaps = blosum62(), GapPenalties(8, 1)
        _, stats = _reference(seq, 6, exchange, gaps)
        assert stats.speculative_waste == 0 < stats.alignments
        assert stats.group == 1

    def test_batched_waste_is_bounded(self):
        """Speculation stays bounded, lane for lane and cell for cell.

        ``speculative_waste`` counts the lanes a sequential loop
        continuing from the same heap would not have realigned before
        the acceptance (see :mod:`repro.core.session`).  In strict score
        order that is at most ``group - 1`` per acceptance; the
        adjacency window may exceed it on one acceptance but not on the
        run.  First passes go out in packer-sized chunks and are nobody's
        speculation, and the span rule keeps every score an acceptance
        did not touch current, so the mate window stops early: the extra
        cells — the number that costs time — stay under a tenth of the
        sequential run's (they were a quarter before the rule).
        """
        seq = pseudo_titin(150, seed=11)
        exchange, gaps = blosum62(), GapPenalties(8, 1)
        # prune=False on both sides: the shares below are of a schedule
        # that owes every first pass, not of what block bounds leave.
        _, sequential = find_top_alignments(
            seq, 8, exchange, gaps, engine="vector", group=1, prune=False
        )
        state = TopAlignmentState(seq, exchange, gaps, engine="lanes", prune=False)
        session = TopAlignmentSession.from_state(state, group=8)
        session.extend(8)
        stats = session.stats
        assert 0 < stats.speculative_waste <= session.speculative_lanes
        assert stats.speculative_waste <= 2 * stats.tracebacks
        assert stats.speculative_waste < 0.1 * stats.alignments
        # Wasted lanes are the only alignments the sequential run lacks
        # (and some of them tighten bounds that save later work).
        extra = stats.alignments - sequential.alignments
        assert 0 <= extra <= stats.speculative_waste
        assert stats.cells <= 1.10 * sequential.cells

    def test_first_passes_are_not_speculation(self):
        """k=1 does first passes only — zero realignments, zero waste."""
        seq = pseudo_titin(100, seed=5)
        exchange, gaps = blosum62(), GapPenalties(8, 1)
        _, stats = find_top_alignments(seq, 1, exchange, gaps, group=8)
        assert stats.realignments == 0
        assert stats.speculative_waste == 0


class TestValidation:
    def test_bad_group(self):
        seq = pseudo_titin(50, seed=1)
        exchange, gaps = blosum62(), GapPenalties(8, 1)
        with pytest.raises(ValueError, match="group"):
            find_top_alignments(seq, 2, exchange, gaps, group=0)

    def test_bad_k(self):
        seq = pseudo_titin(50, seed=1)
        exchange, gaps = blosum62(), GapPenalties(8, 1)
        with pytest.raises(ValueError, match="k"):
            find_top_alignments(seq, 0, exchange, gaps)

    def test_group_one_matches_sequential_stats(self):
        """The degenerate G=1 batched run performs the exact same work."""
        seq = pseudo_titin(100, seed=9)
        exchange, gaps = blosum62(), GapPenalties(8, 1)
        expected, seq_stats = _reference(seq, 5, exchange, gaps)
        got, stats = find_top_alignments(
            seq, 5, exchange, gaps, group=1, engine="vector"
        )
        assert key(got) == key(expected)
        assert stats.alignments == seq_stats.alignments
        assert stats.realignments == seq_stats.realignments
        assert stats.speculative_waste == 0
