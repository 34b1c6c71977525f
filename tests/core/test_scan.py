"""Tests for database scanning."""

import pytest

from repro.core import DatabaseScanner, RepeatFinder
from repro.sequences import (
    DNA,
    Sequence,
    iter_fasta,
    pseudo_titin,
    random_sequence,
    tandem_repeat_sequence,
    write_fasta,
)


@pytest.fixture()
def mixed_records():
    return [
        Sequence(tandem_repeat_sequence("ATGCGT", 5).codes, DNA, id="tandem"),
        Sequence(random_sequence(40, DNA, seed=3).codes, DNA, id="random"),
        Sequence("ACGT", DNA, id="tiny"),
    ]


class TestScanner:
    def test_reports_per_sequence(self, mixed_records):
        scanner = DatabaseScanner(
            finder=RepeatFinder(top_alignments=4), min_length=10
        )
        reports = scanner.scan(mixed_records)
        assert [r.id for r in reports] == ["tandem", "random"]  # tiny skipped

    def test_tandem_ranks_first(self, mixed_records):
        scanner = DatabaseScanner(finder=RepeatFinder(top_alignments=4))
        ranked = scanner.rank(mixed_records)
        assert ranked[0].id == "tandem"
        assert ranked[0].best_score > ranked[1].best_score

    def test_report_properties(self, mixed_records):
        scanner = DatabaseScanner(finder=RepeatFinder(top_alignments=4))
        tandem = scanner.rank(mixed_records)[0]
        assert tandem.length == 30
        assert tandem.is_repetitive
        assert tandem.n_families >= 1
        assert 0.5 < tandem.repeat_fraction <= 1.0

    def test_empty_input(self):
        assert DatabaseScanner().scan([]) == []

    def test_no_repeat_report(self):
        rep = DatabaseScanner(finder=RepeatFinder(top_alignments=1, min_score=1e9)).scan(
            [random_sequence(30, DNA, seed=1, id="r")]
        )[0]
        assert rep.best_score == 0.0
        assert rep.repeat_fraction == 0.0
        assert not rep.is_repetitive

    def test_masking_path(self):
        protein = Sequence("ACDEFGHIKL" + "Q" * 30 + "MNPQRSTVWY", id="polyq")
        scanner = DatabaseScanner(
            finder=RepeatFinder(top_alignments=2), mask=True
        )
        unmasked = DatabaseScanner(finder=RepeatFinder(top_alignments=2))
        masked_score = scanner.scan([protein])[0].best_score
        raw_score = unmasked.scan([protein])[0].best_score
        assert masked_score < raw_score  # the poly-Q no longer dominates


class _ExplodingFinder(RepeatFinder):
    """Raises on sequences whose id starts with 'bad'."""

    def find(self, sequence):
        if sequence.id.startswith("bad"):
            raise RuntimeError("boom on " + sequence.id)
        return super().find(sequence)


class TestPerRecordFailures:
    def _records(self):
        return [
            Sequence(tandem_repeat_sequence("ATGCGT", 5).codes, DNA, id="tandem"),
            Sequence(random_sequence(40, DNA, seed=3).codes, DNA, id="bad-one"),
            Sequence(random_sequence(40, DNA, seed=4).codes, DNA, id="random"),
        ]

    def test_failure_does_not_abort_scan(self):
        scanner = DatabaseScanner(finder=_ExplodingFinder(top_alignments=4))
        reports = scanner.scan(self._records())
        assert [r.id for r in reports] == ["tandem", "bad-one", "random"]
        failed = {r.id: r.failed for r in reports}
        assert failed == {"tandem": False, "bad-one": True, "random": False}

    def test_failed_report_shape(self):
        scanner = DatabaseScanner(finder=_ExplodingFinder(top_alignments=4))
        rep = next(r for r in scanner.scan(self._records()) if r.failed)
        assert rep.result is None
        assert rep.error == "RuntimeError: boom on bad-one"
        assert rep.length == 40
        # Derived properties degrade gracefully instead of raising.
        assert rep.best_score == 0.0
        assert rep.repeat_fraction == 0.0
        assert rep.n_families == 0
        assert not rep.is_repetitive

    def test_successful_report_has_no_error(self, mixed_records):
        reports = DatabaseScanner(finder=RepeatFinder(top_alignments=4)).scan(
            mixed_records
        )
        assert all(not r.failed and r.error is None for r in reports)

    def test_rank_sorts_failures_last(self):
        scanner = DatabaseScanner(finder=_ExplodingFinder(top_alignments=4))
        ranked = scanner.rank(self._records())
        assert ranked[-1].id == "bad-one"
        assert ranked[-1].failed
        assert ranked[0].id == "tandem"


class TestEngineKnobs:
    def test_no_overrides_keeps_finder(self):
        finder = RepeatFinder(top_alignments=4)
        scanner = DatabaseScanner(finder=finder)
        assert scanner.finder is finder

    def test_knobs_do_not_change_reports(self, mixed_records):
        baseline = DatabaseScanner(finder=RepeatFinder(top_alignments=4))
        sequential = DatabaseScanner(
            finder=RepeatFinder(top_alignments=4, engine="vector", group=1)
        )
        expected = baseline.rank(mixed_records)
        got = sequential.rank(mixed_records)
        assert [r.id for r in got] == [r.id for r in expected]
        for a, b in zip(got, expected):
            assert a.best_score == b.best_score
            assert [
                (t.r, t.score, t.pairs) for t in a.result.top_alignments
            ] == [(t.r, t.score, t.pairs) for t in b.result.top_alignments]

    def test_scoring_objects_reused_across_records(self, mixed_records):
        scanner = DatabaseScanner(
            finder=RepeatFinder(top_alignments=4, engine="lanes", group=4)
        )
        scanner.scan(mixed_records)
        finder = scanner.finder
        # One engine instance and one exchange served every record.
        assert finder._engine_instance is not None
        assert finder._engine_instance is finder._engine_for_run()
        assert len(finder._exchange_cache) == 1


class TestScanFasta:
    def test_end_to_end(self, tmp_path, mixed_records):
        path = tmp_path / "db.fasta"
        write_fasta(mixed_records, path)
        reports = DatabaseScanner(finder=RepeatFinder(top_alignments=4)).rank(
            iter_fasta(path, "dna")
        )
        assert reports[0].id == "tandem"

    def test_protein_default(self, tmp_path):
        path = tmp_path / "p.fasta"
        write_fasta(
            [Sequence(pseudo_titin(80, seed=2).codes, id="t80")], path
        )
        reports = DatabaseScanner(finder=RepeatFinder(top_alignments=3)).rank(
            iter_fasta(path, "protein")
        )
        assert len(reports) == 1
        assert reports[0].length == 80


class TestScanPayloadRoundTrip:
    def test_result_round_trips(self, mixed_records):
        from repro.core.result import RepeatResult

        scanner = DatabaseScanner(finder=RepeatFinder(top_alignments=4))
        report = scanner.scan(mixed_records)[0]
        rebuilt = RepeatResult.from_dict(report.result.to_dict())
        assert rebuilt.top_alignments == report.result.top_alignments
        assert rebuilt.repeats == report.result.repeats
        assert rebuilt.stats.alignments == report.result.stats.alignments

    def test_document_round_trips_through_json(self, mixed_records):
        import json

        from repro.core.scan import load_scan_payload, scan_to_payload

        scanner = DatabaseScanner(finder=RepeatFinder(top_alignments=4))
        reports = scanner.scan(mixed_records)
        payload = scan_to_payload(reports, mixed_records, alphabet="dna")
        document = load_scan_payload(json.loads(json.dumps(payload)))
        assert [r.id for r in document.reports] == [r.id for r in reports]
        assert all(
            seq is not None and seq.text == orig.text
            for seq, orig in zip(
                document.sequences,
                [s for s in mixed_records if len(s) >= scanner.min_length],
            )
        )
        assert document.reports[0].result == reports[0].result

    def test_payload_without_sequences(self, mixed_records):
        from repro.core.scan import load_scan_payload, scan_to_payload

        scanner = DatabaseScanner(finder=RepeatFinder(top_alignments=4))
        reports = scanner.scan(mixed_records)
        document = load_scan_payload(scan_to_payload(reports, alphabet="dna"))
        assert all(seq is None for seq in document.sequences)
