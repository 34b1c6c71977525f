"""Tests for unit-length selection, consensus, and tandem phasing (§6)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.consensus import (
    block_identity,
    consensus_of_copies,
    phase_tandem,
    select_unit_length,
)
from repro.sequences import DNA, Sequence, tandem_repeat_sequence


class TestBlockIdentity:
    def test_perfect_tandem(self):
        codes = DNA.encode("ATGATGATG")
        assert block_identity(codes, 3) == 1.0

    def test_wrong_period_scores_lower(self):
        codes = DNA.encode("ATGATGATG")
        assert block_identity(codes, 2) < 1.0

    def test_homopolymer(self):
        assert block_identity(DNA.encode("AAAA"), 1) == 1.0

    def test_random_near_uniform(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 4, 4000).astype(np.int8)
        assert block_identity(codes, 5) < 0.45  # ~0.25 + majority bias

    @settings(max_examples=60, deadline=None)
    @given(
        codes=st.lists(st.integers(0, 24), min_size=2, max_size=60),
        extra=st.sampled_from(["half", "whole"]),
    )
    def test_equals_the_per_column_loop(self, codes, extra):
        """The one-bincount form against the column loop it replaced, for
        every unit 1..n/2 plus a single block / ``unit == size``."""
        codes = np.array(codes, dtype=np.int8)
        n = codes.size
        units = list(range(1, n // 2 + 1))
        units.append(n // 2 + 1 if extra == "half" else n)  # one block
        for unit in units:
            copies = n // unit
            blocks = codes[: copies * unit].reshape(copies, unit)
            agree = sum(int(np.bincount(blocks[:, c]).max()) for c in range(unit))
            assert block_identity(codes, unit) == agree / blocks.size


class TestUnitSelection:
    def test_paper_aac_question(self):
        """§6: AACAACAACAAC -> four occurrences of AAC, not AACAAC or A."""
        seq = Sequence("AACAACAACAAC", DNA)
        choice = select_unit_length(seq)
        assert choice.unit_length == 3
        assert choice.copies == 4
        assert choice.identity == 1.0

    def test_explicit_candidates(self):
        seq = Sequence("AACAACAACAAC", DNA)
        choice = select_unit_length(seq, candidates=[1, 3, 6])
        assert choice.unit_length == 3

    def test_homopolymer_prefers_unit_one(self):
        choice = select_unit_length(Sequence("AAAAAAAA", DNA))
        assert choice.unit_length == 1
        assert choice.copies == 8

    def test_diverged_tandem_still_found(self):
        seq = tandem_repeat_sequence("ATGCATG", 6, substitution_rate=0.15, seed=3)
        choice = select_unit_length(seq)
        assert choice.unit_length == 7

    def test_ties_prefer_shortest(self):
        # ATAT: unit 2 ('AT' x2, score 1*(1-1/2)=0.5); unit 1 identity 0.5
        # with factor 0.75 -> 0.375. Unit 2 wins outright here; construct
        # a genuine tie instead: ABAB over alphabet {A,B} with candidates
        # doubling the unit -> same identity, fewer copies, so shorter wins.
        seq = Sequence("ATATATAT", DNA)
        choice = select_unit_length(seq, candidates=[2, 4])
        assert choice.unit_length == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            select_unit_length(Sequence("A", DNA))
        with pytest.raises(ValueError):
            select_unit_length(Sequence("ATAT", DNA), candidates=[])
        with pytest.raises(ValueError):
            select_unit_length(Sequence("ATAT", DNA), candidates=[9])

    @settings(max_examples=25, deadline=None)
    @given(
        unit=st.integers(1, 5),
        copies=st.integers(3, 6),
        seed=st.integers(0, 100),
    )
    def test_property_perfect_tandems_recover_period(self, unit, copies, seed):
        """A perfect tandem's selected unit divides the true period and
        reconstructs it with full identity."""
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 4, unit).astype(np.int8)
        seq = Sequence(np.tile(base, copies), DNA)
        choice = select_unit_length(seq)
        assert choice.identity == 1.0
        assert unit % choice.unit_length == 0  # may find a sub-period of base

    @settings(max_examples=80, deadline=None)
    @given(
        codes=st.lists(st.integers(0, 3), min_size=2, max_size=48),
        subset=st.booleans(),
        data=st.data(),
    )
    def test_skipping_hopeless_units_changes_nothing(self, codes, subset, data):
        """Units whose ``1 - 1/copies`` ceiling cannot beat the best so
        far are not scored; the choice is the exhaustive loop's, field
        for field, ties to the shortest unit."""
        codes = np.array(codes, dtype=np.int8)
        candidates = list(range(1, codes.size // 2 + 1))
        if subset:
            candidates = data.draw(
                st.lists(st.integers(1, codes.size), min_size=1, max_size=6)
            )
        best = None
        for unit in sorted(set(candidates)):
            copies = codes.size // unit
            identity = block_identity(codes, unit)
            score = identity * identity * (1.0 - 1.0 / copies) if copies > 1 else 0.0
            if best is None or score > best[3]:
                best = (unit, copies, identity, score)
        choice = select_unit_length(codes, candidates)
        assert (choice.unit_length, choice.copies, choice.identity, choice.score) == best


class TestConsensus:
    def test_majority_vote(self):
        seq = Sequence("ATGCATGCATGA", DNA)  # third copy ends ...GA
        consensus = consensus_of_copies(seq, [(1, 4), (5, 8), (9, 12)])
        assert consensus.text == "ATGC"

    def test_uneven_copy_lengths_use_median(self):
        seq = Sequence("ATGCATGCATG", DNA)
        consensus = consensus_of_copies(seq, [(1, 4), (5, 8), (9, 11)])
        assert consensus.text == "ATGC"

    def test_single_copy(self):
        seq = Sequence("ATGC", DNA)
        assert consensus_of_copies(seq, [(1, 4)]).text == "ATGC"

    def test_validation(self):
        seq = Sequence("ATGC", DNA)
        with pytest.raises(ValueError):
            consensus_of_copies(seq, [])
        with pytest.raises(ValueError):
            consensus_of_copies(seq, [(0, 3)])
        with pytest.raises(ValueError):
            consensus_of_copies(seq, [(2, 9)])

    def test_alphabet_preserved(self):
        seq = Sequence("ATGCATGC", DNA)
        assert consensus_of_copies(seq, [(1, 4), (5, 8)]).alphabet is DNA


class TestPhasing:
    def test_pure_tandem_is_phase_invariant(self):
        """A clean tandem is perfect at every rotation; ties go to 0."""
        seq = Sequence("GCATGCATGCATGC", DNA)
        offset, identity = phase_tandem(seq, 4)
        assert offset == 0
        assert identity == 1.0

    def test_leading_context_fixes_the_phase(self):
        """TT | ATGC ATGC ATGC: only offset 2 aligns the copy boundaries
        — the §6 'right starting positions' situation."""
        seq = Sequence("TTATGCATGCATGC", DNA)
        offset, identity = phase_tandem(seq, 4)
        assert offset == 2
        assert identity == 1.0

    def test_aligned_tandem_prefers_zero(self):
        seq = Sequence("ATGCATGCATGC", DNA)
        offset, identity = phase_tandem(seq, 4)
        assert offset == 0 and identity == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            phase_tandem(Sequence("ATGC", DNA), 4)
