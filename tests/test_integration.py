"""Cross-module integration tests: full pipelines, end to end."""

import io

import numpy as np
import pytest

from repro import find_repeats
from repro.core import (
    RepeatFinder,
    TopAlignmentSession,
    consensus_of_copies,
    find_top_alignments,
    select_unit_length,
)
from repro.scoring import GapPenalties, blosum62, match_mismatch, pam250
from repro.sequences import (
    DNA,
    PROTEIN,
    RepeatSpec,
    Sequence,
    implant_repeats,
    parse_fasta_text,
    pseudo_titin,
    write_fasta,
)


class TestGroundTruthRecovery:
    """Detector output vs the workload generator's ground truth."""

    def test_exact_tandem_recovered(self):
        wl = implant_repeats(
            160,
            RepeatSpec(unit_length=30, copies=3, substitution_rate=0.0),
            seed=21,
        )
        result = find_repeats(wl.sequence, top_alignments=6)
        truth = {(s + 1, e) for s, e in wl.intervals[0]}  # 1-based inclusive
        found = {
            copy for rep in result.repeats for copy in rep.copies
        }
        # Every true copy overlaps a found copy by >= 80 %.
        for ts, te in truth:
            overlap = max(
                (min(te, fe) - max(ts, fs) + 1) / (te - ts + 1)
                for fs, fe in found
            )
            assert overlap >= 0.8, (ts, te, sorted(found))

    def test_diverged_copies_detected(self):
        wl = implant_repeats(
            180,
            RepeatSpec(unit_length=35, copies=3, substitution_rate=0.25),
            seed=5,
        )
        result = find_repeats(wl.sequence, top_alignments=8, max_gap=2)
        assert result.top_alignments[0].score > 30
        covered = np.zeros(len(wl.sequence), dtype=bool)
        for rep in result.repeats:
            for s, e in rep.copies:
                covered[s - 1 : e] = True
        truth_cov = np.zeros(len(wl.sequence), dtype=bool)
        for s, e in wl.intervals[0]:
            truth_cov[s:e] = True
        # Majority of the true repeat region is recovered.
        assert covered[truth_cov].mean() > 0.5

    def test_no_false_families_on_random(self):
        from repro.sequences import random_sequence

        seq = random_sequence(80, DNA, seed=9)
        result = find_repeats(seq, top_alignments=3, min_score=25.0)
        assert result.repeats == []


class TestPipelines:
    def test_fasta_to_consensus(self, tmp_path):
        """FASTA in -> detect -> unit selection -> consensus out."""
        seq = Sequence("AACAACAACAAC", DNA, id="aac")
        path = tmp_path / "in.fasta"
        write_fasta(seq, path)
        from repro.sequences import read_fasta

        (record,) = read_fasta(path, DNA)
        result = find_repeats(record, top_alignments=6)
        assert result.repeats
        copies = result.repeats[0].copies
        consensus = consensus_of_copies(record, list(copies))
        choice = select_unit_length(record)
        assert choice.unit_length == 3
        assert consensus.text == "AAC" * (len(consensus) // 3)

    def test_session_feeds_delineation(self, small_repeat_protein):
        from repro.core.delineate import delineate_repeats

        session = TopAlignmentSession(
            small_repeat_protein, blosum62(), GapPenalties(8, 1)
        )
        session.extend(3)
        few = delineate_repeats(session.alignments, len(small_repeat_protein))
        session.extend(5)
        more = delineate_repeats(session.alignments, len(small_repeat_protein))
        assert len(session.alignments) == 8
        assert more  # sensitivity grows with more top alignments (§2.2)
        assert sum(r.n_copies for r in more) >= sum(r.n_copies for r in few)

    def test_scoring_models_change_results_consistently(self):
        seq = pseudo_titin(120, seed=8)
        b62 = find_top_alignments(seq, 3, blosum62(), GapPenalties(8, 1))[0]
        p250 = find_top_alignments(seq, 3, pam250(), GapPenalties(8, 1))[0]
        assert len(b62) == len(p250) == 3
        # Same machinery, different matrices: scores must both be valid
        # but need not agree.
        assert all(a.score > 0 for a in b62 + p250)

    def test_unicode_free_ascii_roundtrip(self):
        text = ">p1 desc\nMKTAYIAKQR\n>p2\nMKTAYIAKQR\n"
        records = parse_fasta_text(text)
        finder = RepeatFinder(top_alignments=1)
        reports = [finder.find(rec) for rec in records]
        assert len(reports) == 2


class TestStatsConsistency:
    def test_cells_match_alignment_sizes(self, small_repeat_protein, protein_scoring):
        ex, gaps = protein_scoring
        m = len(small_repeat_protein)
        # prune=False: the exact closed form only holds for the exhaustive
        # first pass; in-kernel pruning skips cells by design.
        _, stats = find_top_alignments(small_repeat_protein, 1, ex, gaps, prune=False)
        # First pass only: cells = sum over r of r*(m-r).
        expected = sum(r * (m - r) for r in range(1, m))
        assert stats.cells == expected

    def test_pruning_evaluates_fewer_cells(self, small_repeat_protein, protein_scoring):
        ex, gaps = protein_scoring
        m = len(small_repeat_protein)
        first_pass_area = sum(r * (m - r) for r in range(1, m))
        tops_off, _ = find_top_alignments(small_repeat_protein, 1, ex, gaps, prune=False)
        tops_on, stats = find_top_alignments(small_repeat_protein, 1, ex, gaps)
        assert [(a.r, a.score, a.pairs) for a in tops_on] == [
            (a.r, a.score, a.pairs) for a in tops_off
        ]
        # Splits whose lane bound never tops the heap are never aligned.
        assert stats.cells < first_pass_area
        assert stats.alignments < m - 1

    def test_realignments_per_top_sums(self, small_repeat_protein, protein_scoring):
        ex, gaps = protein_scoring
        _, stats = find_top_alignments(small_repeat_protein, 5, ex, gaps)
        assert sum(stats.realignments_per_top) == stats.realignments


class TestDeterminismAcrossRuns:
    def test_everything_is_reproducible(self):
        results = [
            find_repeats(pseudo_titin(100, seed=3), top_alignments=4)
            for _ in range(2)
        ]
        a, b = results
        assert [al.pairs for al in a.top_alignments] == [
            al.pairs for al in b.top_alignments
        ]
        assert [r.copies for r in a.repeats] == [r.copies for r in b.repeats]
        assert a.stats.alignments == b.stats.alignments
