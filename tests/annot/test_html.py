"""The HTML report's self-containment and escaping contracts."""

import re

from repro.annot import annotate_scan
from repro.annot.report_html import render_html
from repro.annot.tracks import build_track
from repro.core import DatabaseScanner
from repro.core.report import FamilyModel
from repro.sequences import Sequence


def _family(**overrides):
    kwargs = dict(
        family=0,
        copies=((1, 10), (11, 20)),
        columns=10,
        unit_length=10.0,
        consensus="MKTAYIAKQR",
        score=42.5,
        identity=0.9,
    )
    kwargs.update(overrides)
    return FamilyModel(**kwargs)


def _entries():
    track = build_track("seq<1>", 20, [(0, ((1, 10), (11, 20)))], window=5)
    return [
        ("seq<1>", 20, track, [_family()], None),
        ("failed & sad", 50, None, [], "ValueError: boom"),
    ]


class TestSelfContainment:
    def test_no_external_references(self):
        html_text = render_html(_entries())
        assert "http" not in html_text
        assert "<script" not in html_text
        assert "<link" not in html_text
        assert "@import" not in html_text
        # One non-ASCII character doubles the storage of the whole str.
        assert html_text.isascii()

    def test_single_document_with_inline_style_and_svg(self):
        html_text = render_html(_entries())
        assert html_text.startswith("<!DOCTYPE html>")
        assert html_text.count("<style>") == 1
        assert "<svg" in html_text
        assert "<polyline" in html_text
        # A record without a copy gets the sentence, not a flat chart.
        empty = build_track("e", 40, [], window=5)
        html_text = render_html([("e", 40, empty, [], None)])
        assert "<svg" not in html_text
        assert "no repeat families detected" in html_text

    def test_sparkline_keeps_the_ends_of_flat_runs_only(self):
        """Dropping the interior of a flat run leaves the drawn line
        unchanged: every vertex where the height changes survives, and
        so do the first and the last point."""
        track = build_track("s", 400, [(0, ((101, 150), (151, 200)))], window=5)
        html_text = render_html([("s", 400, track, [_family()], None)])
        line = re.search(r'<polyline points="([^"]*)"', html_text).group(1)
        kept = [tuple(map(float, point.split(","))) for point in line.split()]
        peak, n = max(track.values), len(track.values)
        full = [
            (round((i + 0.5) / n * 560, 1), round(64 - v / peak * 60 - 2, 1))
            for i, v in enumerate(track.values)
        ]
        assert len(kept) < len(full) and set(kept) <= set(full)
        assert (kept[0], kept[-1]) == (full[0], full[-1])
        ys = [y for _, y in full]
        corners = [
            full[i]
            for i in range(1, n - 1)
            if not ys[i - 1] == ys[i] == ys[i + 1]
        ]
        assert set(corners) <= set(kept)

    def test_real_scan_report_is_self_contained(self):
        seqs = [Sequence("MKTAYIAKQR" * 5, id="rep")]
        annotation = DatabaseScanner().annotate_scan(seqs)
        html_text = annotation.html()
        assert "http" not in html_text
        assert "rep" in html_text


class TestEscapingAndContent:
    def test_sequence_ids_are_escaped(self):
        html_text = render_html(_entries())
        assert "seq<1>" not in html_text
        assert "seq&lt;1&gt;" in html_text
        assert "failed &amp; sad" in html_text

    def test_error_records_render_failure(self):
        html_text = render_html(_entries())
        assert "scan failed" in html_text
        assert "ValueError: boom" in html_text

    def test_family_table_and_collapsible_details(self):
        html_text = render_html(_entries())
        assert "<table>" in html_text
        assert "<details>" in html_text
        assert "<summary>" in html_text
        assert "MKTAYIAKQR" in html_text

    def test_msa_block_collapsible_when_present(self):
        seqs = [Sequence("MKTAYIAKQR" * 5, id="rep")]
        annotation = DatabaseScanner().annotate_scan(seqs)
        html_text = annotation.html()
        # The MSA (and its conservation line) renders inside <pre>.
        assert re.search(
            r"<details>.*<pre>.*</pre>.*</details>", html_text, re.DOTALL
        )

    def test_summary_line_counts(self):
        html_text = render_html(_entries())
        assert "2 sequences, 1 repeat" in html_text


class TestEmptyAnnotation:
    def test_no_sequences_still_valid_document(self):
        html_text = render_html([])
        assert html_text.startswith("<!DOCTYPE html>")
        assert "0 sequences" in html_text

    def test_annotate_scan_empty(self):
        annotation = annotate_scan([], [])
        assert "0 sequences" in annotation.html()
