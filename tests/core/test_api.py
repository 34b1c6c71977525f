"""Tests for the high-level API (RepeatFinder / find_repeats)."""

import pytest

from repro import find_repeats
from repro.core import RepeatFinder, RepeatResult, old_find_top_alignments
from repro.scoring import GapPenalties, match_mismatch
from repro.sequences import DNA, Sequence, tandem_repeat_sequence


class TestFindRepeats:
    def test_tandem_dna_end_to_end(self):
        seq = tandem_repeat_sequence("ATGC", 3)
        result = find_repeats(seq, top_alignments=3)
        assert isinstance(result, RepeatResult)
        assert len(result.top_alignments) == 3
        assert len(result.repeats) == 1
        assert result.repeats[0].copies == ((1, 4), (5, 8), (9, 12))

    def test_string_input_assumed_protein(self):
        result = find_repeats("MKTAYIAKQRMKTAYIAKQR", top_alignments=2)
        assert result.top_alignments
        assert result.top_alignments[0].pairs[0] == (1, 11)

    def test_default_exchange_per_alphabet(self):
        dna_seq = tandem_repeat_sequence("ATGC", 3)
        result = find_repeats(dna_seq, top_alignments=1)
        assert result.top_alignments[0].score == 8.0  # +2/-1 scoring

    def test_explicit_scoring(self):
        seq = tandem_repeat_sequence("ATGC", 3)
        result = find_repeats(
            seq,
            top_alignments=1,
            exchange=match_mismatch(DNA, 5.0, -2.0),
            gaps=GapPenalties(4, 2),
        )
        assert result.top_alignments[0].score == 20.0

    def test_old_algorithm_same_results(self):
        seq = tandem_repeat_sequence("ATGC", 3)
        new = find_repeats(seq, top_alignments=3)
        old, _ = old_find_top_alignments(seq, 3, match_mismatch(DNA, 2.0, -1.0))
        assert [(a.r, a.pairs) for a in new.top_alignments] == [
            (a.r, a.pairs) for a in old
        ]

    def test_min_score_filters(self):
        seq = tandem_repeat_sequence("ATGC", 3)
        result = find_repeats(seq, top_alignments=10, min_score=7.0)
        assert all(a.score > 7.0 for a in result.top_alignments)

    def test_stats_present(self):
        result = find_repeats(tandem_repeat_sequence("ATGC", 3), top_alignments=2)
        assert result.stats.alignments > 0
        assert result.stats.tracebacks == 2


class TestRepeatFinder:
    def test_reusable_across_sequences(self):
        finder = RepeatFinder(top_alignments=2)
        r1 = finder.find(tandem_repeat_sequence("ATGC", 3))
        r2 = finder.find(tandem_repeat_sequence("GGCC", 3))
        assert len(r1.top_alignments) == 2
        assert len(r2.top_alignments) == 2

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            RepeatFinder(top_alignments=0)

    def test_seed_bounds_accepted_only_as_none(self):
        # Kept for callers that pass it through; block bounds are the
        # search's only start bounds.
        seq = tandem_repeat_sequence("ATGC", 3)
        finder = RepeatFinder(top_alignments=1)
        assert finder.find(seq, seed_bounds=None).top_alignments[0].score == 8.0
        with pytest.raises(ValueError, match="seed_bounds"):
            finder.find(seq, seed_bounds=[0.0] * (len(seq) - 1))

    def test_engine_selection(self):
        seq = tandem_repeat_sequence("ATGC", 3)
        for engine in ("scalar", "vector", "lanes"):
            result = RepeatFinder(top_alignments=1, engine=engine).find(seq)
            assert result.top_alignments[0].score == 8.0

    def test_delineation_knobs_forwarded(self):
        seq = tandem_repeat_sequence("ATGC", 3)
        result = RepeatFinder(top_alignments=3, min_copy_length=5).find(seq)
        assert result.repeats == []  # copies are length 4 < 5


def test_repeated_finds_leave_memory_flat():
    """Nothing a ``find`` allocates may outlive it (module-level caches
    keyed by per-call objects would): after a warm-up, 30 more calls on
    one sequence keep traced memory within a few KB."""
    import gc
    import tracemalloc

    from repro import obs
    from repro.scoring import blosum62
    from repro.sequences import pseudo_titin

    seq = pseudo_titin(90, seed=5)
    finder = RepeatFinder(exchange=blosum62(), gaps=GapPenalties(8, 1), top_alignments=4)
    was_on = obs.enabled()
    obs.disable()  # a collecting tracer keeps spans by design
    try:
        for _ in range(3):
            finder.find(seq)
        gc.collect()
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(30):
            finder.find(seq)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if was_on:
            obs.enable()
    assert after - before < 16_384, after - before
