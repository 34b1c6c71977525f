"""Tests for batched database search (the §6 generalisation)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import AlignmentProblem, full_matrix
from repro.align.search import (
    best_local_score,
    best_scores_batch,
    search_database,
)
from repro.scoring import GapPenalties, blosum62, match_mismatch
from repro.sequences import DNA, PROTEIN, Sequence, mutate, random_sequence


class TestBestLocalScore:
    def test_matches_full_matrix_max(self, figure2_problem):
        assert best_local_score(figure2_problem) == 6.0
        assert best_local_score(figure2_problem) == full_matrix(figure2_problem).max()

    def test_empty(self, dna_scoring):
        ex, gaps = dna_scoring
        p = AlignmentProblem(np.array([], dtype=np.int8), DNA.encode("AC"), ex, gaps)
        assert best_local_score(p) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_property_equals_matrix_max(self, data, dna_scoring):
        ex, gaps = dna_scoring
        s1 = np.array(data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=20)), dtype=np.int8)
        s2 = np.array(data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=20)), dtype=np.int8)
        p = AlignmentProblem(s1, s2, ex, gaps)
        assert best_local_score(p) == full_matrix(p).max()


class TestBatchScores:
    def test_matches_single_scores(self, dna_scoring):
        ex, gaps = dna_scoring
        rng = np.random.default_rng(5)
        problems = [
            AlignmentProblem(
                rng.integers(0, 4, rng.integers(2, 30)).astype(np.int8),
                rng.integers(0, 4, rng.integers(2, 30)).astype(np.int8),
                ex,
                gaps,
            )
            for _ in range(7)
        ]
        batch = best_scores_batch(problems)
        singles = [best_local_score(p) for p in problems]
        assert batch == singles

    def test_empty_batch(self):
        assert best_scores_batch([]) == []

    def test_fractional_scoring_and_empty_lanes(self, dna_scoring):
        """Any scoring runs (the row step picks an exact work type) and
        empty problems score 0 without joining the lockstep."""
        ex, _ = dna_scoring
        gaps = GapPenalties(2.5, 0.5)
        problems = [
            AlignmentProblem(DNA.encode("ACGTACGT"), DNA.encode("ACTTACG"), ex, gaps),
            AlignmentProblem(np.array([], dtype=np.int8), DNA.encode("AC"), ex, gaps),
            AlignmentProblem(DNA.encode("GATTACA"), DNA.encode("TTAC"), ex, gaps),
        ]
        assert best_scores_batch(problems) == [
            float(full_matrix(p).max()) for p in problems
        ]

    def test_rejects_mixed_gaps(self, dna_scoring):
        ex, _ = dna_scoring
        p1 = AlignmentProblem(DNA.encode("AC"), DNA.encode("AC"), ex, GapPenalties(2, 1))
        p2 = AlignmentProblem(DNA.encode("AC"), DNA.encode("AC"), ex, GapPenalties(3, 1))
        with pytest.raises(ValueError, match="gap"):
            best_scores_batch([p1, p2])


class TestSearchDatabase:
    @pytest.fixture()
    def database(self):
        """Query motif planted into 2 of 6 random proteins."""
        rng = np.random.default_rng(7)
        query = Sequence("HQRTHTGEKPYKCPECGKSF", PROTEIN, id="query")
        db = []
        for i in range(6):
            body = random_sequence(60, PROTEIN, seed=100 + i).codes.copy()
            if i in (1, 4):  # implant a diverged copy of the query
                motif = mutate(
                    query.codes, PROTEIN, substitution_rate=0.15, rng=rng
                )
                body[10 : 10 + motif.size] = motif[: max(0, 60 - 10)][: motif.size]
            db.append(Sequence(body, PROTEIN, id=f"db{i}"))
        return query, db

    def test_planted_motifs_rank_first(self, database):
        query, db = database
        hits = search_database(query, db, blosum62(), GapPenalties(8, 1))
        assert {hits[0].id, hits[1].id} == {"db1", "db4"}
        assert hits[0].score > hits[2].score

    def test_top_limits_results(self, database):
        query, db = database
        hits = search_database(
            query, db, blosum62(), GapPenalties(8, 1), top=2
        )
        assert len(hits) == 2

    def test_lane_width_does_not_change_scores(self, database):
        query, db = database
        by_width = [
            [
                (h.id, h.score)
                for h in search_database(
                    query, db, blosum62(), GapPenalties(8, 1), lanes=lanes
                )
            ]
            for lanes in (1, 3, 8)
        ]
        assert by_width[0] == by_width[1] == by_width[2]

    def test_lanes_validation(self, database):
        query, db = database
        with pytest.raises(ValueError):
            search_database(query, db, blosum62(), lanes=0)

    def test_empty_database(self):
        query = Sequence("ACGT", DNA)
        assert search_database(query, [], match_mismatch(DNA, 2, -1)) == []
