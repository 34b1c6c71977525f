"""The index tier's per-split bounds: provably >= the true first-pass
scores.  No search starts from them (block bounds do); the benchmark
measures how tight they are."""

import numpy as np
import pytest

from repro.core.topalign import TopAlignmentState, find_top_alignments
from repro.index import seed_score_bounds
from repro.scoring import GapPenalties, match_mismatch
from repro.scoring.blosum import blosum62
from repro.sequences import DNA, Sequence, pseudo_titin, random_sequence
from repro.sequences.workloads import RepeatSpec, implant_repeats


def _dna_scoring():
    return match_mismatch(DNA, 2.0, -1.0, wildcard_score=None), GapPenalties(2, 1)


def _first_pass_scores(seq, exchange, gaps):
    """The true version-0 first-pass score of every split."""
    state = TopAlignmentState(seq, exchange, gaps)
    scores = []
    for r in range(1, len(seq)):
        row = state.engine.last_row(state.problem_for(r))
        scores.append(float(np.asarray(row).max()))
    return np.array(scores)


class TestShape:
    def test_length_and_dtype(self):
        seq = random_sequence(40, DNA, seed=1)
        exchange, _ = _dna_scoring()
        bounds = seed_score_bounds(seq, exchange)
        assert bounds.shape == (len(seq) - 1,)
        assert bounds.dtype == np.float64
        assert np.isfinite(bounds).all()
        assert (bounds >= 0).all()

    def test_degenerate_sequence(self):
        exchange, _ = _dna_scoring()
        assert seed_score_bounds(Sequence("A", DNA), exchange).size == 0


class TestDominance:
    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_bounds_dominate_first_pass_dna(self, seed):
        seq = implant_repeats(
            120,
            RepeatSpec(unit_length=20, copies=3, substitution_rate=0.15),
            DNA,
            seed=seed,
        ).sequence
        exchange, gaps = _dna_scoring()
        bounds = seed_score_bounds(seq, exchange)
        truth = _first_pass_scores(seq, exchange, gaps)
        assert (bounds >= truth - 1e-9).all()

    def test_bounds_dominate_first_pass_protein(self):
        seq = pseudo_titin(90, seed=4)
        exchange = blosum62()
        gaps = GapPenalties(8, 1)
        bounds = seed_score_bounds(seq, exchange)
        truth = _first_pass_scores(seq, exchange, gaps)
        assert (bounds >= truth - 1e-9).all()

    def test_accepted_tops_respect_their_seed_bound(self):
        seq = implant_repeats(
            150,
            RepeatSpec(unit_length=25, copies=4, substitution_rate=0.1),
            DNA,
            seed=5,
        ).sequence
        exchange, gaps = _dna_scoring()
        bounds = seed_score_bounds(seq, exchange)
        tops, _ = find_top_alignments(seq, 5, exchange, gaps)
        for top in tops:
            assert top.score <= bounds[top.r - 1] + 1e-9


class TestTightness:
    def test_identity_bound_tightens_dna(self):
        # For +2/-1 (off-diagonal <= 0) the identity bound applies and
        # must never be looser than composition alone.
        seq = random_sequence(80, DNA, seed=6)
        exchange, _ = _dna_scoring()
        weights = np.maximum(exchange.scores, 0.0).max(axis=1)
        wseq = weights[np.asarray(seq.codes)]
        prefix = np.cumsum(wseq)
        composition = np.minimum(prefix[:-1], prefix[-1] - prefix[:-1])
        bounds = seed_score_bounds(seq, exchange)
        assert (bounds <= composition + 1e-9).all()

    def test_blosum_falls_back_to_composition(self):
        # BLOSUM62 has positive off-diagonal entries, so the identity
        # bound is unsound there and the composition bound must be the
        # exact result.
        seq = pseudo_titin(60, seed=8)
        exchange = blosum62()
        weights = np.maximum(exchange.scores, 0.0).max(axis=1)
        wseq = weights[np.asarray(seq.codes)]
        prefix = np.cumsum(wseq)
        composition = np.minimum(prefix[:-1], prefix[-1] - prefix[:-1])
        bounds = seed_score_bounds(seq, exchange)
        assert np.allclose(bounds, np.maximum(composition, 0.0))


class TestSeededEquivalence:
    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_seeded_tops_bit_identical(self, k):
        seq = implant_repeats(
            140,
            RepeatSpec(unit_length=28, copies=4, substitution_rate=0.12),
            DNA,
            seed=2,
        ).sequence
        exchange, gaps = _dna_scoring()
        bounds = seed_score_bounds(seq, exchange)
        tops, _ = find_top_alignments(seq, k, exchange, gaps)
        assert len(tops) == k
        # An accepted score is a true realigned score: its split's bound
        # dominates it.
        for top in tops:
            assert top.score <= bounds[top.r - 1] + 1e-9

    def test_seeding_prunes_first_pass_work(self):
        seq = implant_repeats(
            240,
            RepeatSpec(unit_length=40, copies=4, substitution_rate=0.12),
            DNA,
            seed=7,
        ).sequence
        exchange, gaps = _dna_scoring()
        bounds = seed_score_bounds(seq, exchange)
        tops, _ = find_top_alignments(seq, 10, exchange, gaps, prune=False)
        # Informative, not just sound: some splits are bounded below the
        # tenth top, so a heap started at these bounds would never
        # align them.
        assert (bounds < tops[-1].score).any()
