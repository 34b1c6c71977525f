"""The Annotation object model: scan -> artifacts, offline documents."""

import json

import pytest

from repro.annot import annotate_document, annotate_scan, validate_gff3
from repro.core import DatabaseScanner
from repro.core.scan import (
    SequenceReport,
    load_scan_payload,
    scan_to_payload,
)
from repro.sequences import Sequence


@pytest.fixture(scope="module")
def scanned():
    seqs = [
        Sequence("MKTAYIAKQR" * 5, id="rep"),
        Sequence("ACDEFGHIKLMNPQRSTVWY", id="plain"),
    ]
    scanner = DatabaseScanner()
    return seqs, scanner.scan(seqs)


class TestAnnotateScan:
    def test_gff3_validates(self, scanned):
        seqs, reports = scanned
        annotation = annotate_scan(reports, seqs)
        assert validate_gff3(annotation.gff3()) == []

    def test_profile_consistency_with_copy_spans(self, scanned):
        seqs, reports = scanned
        annotation = annotate_scan(reports, seqs)
        payload = annotation.profile_payload()
        weighted = 0.0
        for record in payload["sequences"]:
            if "values" not in record:
                continue
            window, length = record["window"], record["length"]
            for i, value in enumerate(record["values"]):
                width = min(window, length - i * window)
                weighted += value * width
        assert weighted == pytest.approx(payload["total_copy_residues"])

    def test_profile_json_parses(self, scanned):
        seqs, reports = scanned
        annotation = annotate_scan(reports, seqs)
        parsed = json.loads(annotation.profile_json())
        assert parsed["format"] == "repro-profile"
        assert [r["id"] for r in parsed["sequences"]] == ["rep", "plain"]

    def test_profile_json_is_one_compact_line_in_payload_key_order(self, scanned):
        """A scan retains every record's profile; no indentation."""
        seqs, reports = scanned
        annotation = annotate_scan(reports, seqs)
        text = annotation.profile_json()
        assert text == json.dumps(annotation.profile_payload()) + "\n"
        assert text.count("\n") == 1
        assert list(json.loads(text)) == [
            "format", "version", "sequences", "total_copy_residues",
        ]

    def test_families_carry_consensus_and_msa(self, scanned):
        seqs, reports = scanned
        annotation = annotate_scan(reports, seqs)
        rep = annotation.sequences[0]
        assert rep.families
        model = rep.families[0]
        assert model.consensus
        assert model.msa is not None
        assert model.identity > 0.5

    def test_error_report_becomes_error_entry(self):
        failed = SequenceReport(id="bad", length=30, result=None, error="boom")
        annotation = annotate_scan([failed], [None])
        entry = annotation.sequences[0]
        assert not entry.ok
        assert entry.error == "boom"
        # Errored records stay out of the GFF3 but appear in the profile.
        assert "bad" not in annotation.gff3()
        payload = annotation.profile_payload()
        assert payload["sequences"][0] == {"id": "bad", "error": "boom"}


class TestCoordinateOnlyFallback:
    def test_missing_sequence_still_annotates_spans(self, scanned):
        seqs, reports = scanned
        annotation = annotate_scan(reports, [None, None])
        entry = annotation.sequences[0]
        assert entry.ok
        assert entry.families
        assert entry.families[0].consensus == ""
        assert entry.track is not None
        assert validate_gff3(annotation.gff3()) == []


class TestScanDocumentRoundTrip:
    def test_annotate_document_matches_direct(self, scanned):
        seqs, reports = scanned
        payload = scan_to_payload(reports, seqs)
        document = load_scan_payload(json.loads(json.dumps(payload)))
        direct = annotate_scan(reports, seqs)
        offline = annotate_document(document)
        assert offline.gff3() == direct.gff3()
        assert offline.profile_payload() == direct.profile_payload()

    def test_rejects_foreign_document(self):
        with pytest.raises(ValueError, match="format"):
            load_scan_payload({"format": "something-else"})
        with pytest.raises(ValueError, match="version"):
            load_scan_payload({"format": "repro-scan", "version": 99})


class TestScannerEntryPoint:
    def test_annotate_scan_method(self):
        seqs = [Sequence("MKTAYIAKQR" * 4, id="rep")]
        annotation = DatabaseScanner().annotate_scan(seqs)
        assert annotation.n_families >= 1
        assert validate_gff3(annotation.gff3()) == []
        assert "rep" in annotation.html()

    def test_short_sequences_are_skipped_not_errored(self):
        seqs = [Sequence("MKT", id="tiny"), Sequence("MKTAYIAKQR" * 4, id="rep")]
        annotation = DatabaseScanner().annotate_scan(seqs)
        assert [e.sequence_id for e in annotation.sequences] == ["rep"]
