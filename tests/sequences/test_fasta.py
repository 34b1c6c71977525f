"""Unit tests for repro.sequences.fasta."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sequences import (
    DNA,
    PROTEIN,
    Sequence,
    format_fasta,
    parse_fasta_text,
    read_fasta,
    write_fasta,
)

SAMPLE = """\
>seq1 first record
ACGTACGT
ACGT
>seq2
TTTT
"""


class TestParsing:
    def test_multi_record(self):
        records = parse_fasta_text(SAMPLE, DNA)
        assert [r.id for r in records] == ["seq1", "seq2"]
        assert records[0].text == "ACGTACGTACGT"
        assert records[1].text == "TTTT"

    def test_description_split(self):
        records = parse_fasta_text(SAMPLE, DNA)
        assert records[0].description == "first record"
        assert records[1].description == ""

    def test_comment_and_blank_lines_skipped(self):
        text = ">a\n; a comment\nAC\n\nGT\n"
        (rec,) = parse_fasta_text(text, DNA)
        assert rec.text == "ACGT"

    def test_headerless_leading_sequence(self):
        (rec,) = parse_fasta_text("ACGT\n", DNA)
        assert rec.id == "" and rec.text == "ACGT"

    def test_spaces_inside_sequence_removed(self):
        (rec,) = parse_fasta_text(">a\nAC GT\n", DNA)
        assert rec.text == "ACGT"

    def test_lenient_by_default(self):
        (rec,) = parse_fasta_text(">a\nACQT\n", DNA)
        assert rec.text == "ACNT"

    def test_strict_mode_raises(self):
        with pytest.raises(ValueError):
            parse_fasta_text(">a\nACQT\n", DNA, strict=True)

    def test_empty_input(self):
        assert parse_fasta_text("", DNA) == []

    def test_alphabet_by_name(self):
        (rec,) = parse_fasta_text(">a\nACGT\n", "dna")
        assert rec.alphabet is DNA


class TestFormatting:
    def test_wrapping(self):
        rec = Sequence("A" * 130, DNA, id="long")
        lines = format_fasta(rec, width=60).splitlines()
        assert lines[0] == ">long"
        assert [len(l) for l in lines[1:]] == [60, 60, 10]

    def test_header_includes_description(self):
        rec = Sequence("ACGT", DNA, id="x", description="hello world")
        assert format_fasta(rec).splitlines()[0] == ">x hello world"

    def test_width_must_be_positive(self):
        with pytest.raises(ValueError):
            format_fasta(Sequence("ACGT", DNA), width=0)

    def test_single_record_accepted(self):
        assert format_fasta(Sequence("AC", DNA, id="a")).startswith(">a")


class TestRoundTrips:
    def test_stringio_roundtrip(self):
        records = parse_fasta_text(SAMPLE, DNA)
        buf = io.StringIO()
        write_fasta(records, buf)
        again = parse_fasta_text(buf.getvalue(), DNA)
        assert again == records
        assert [r.id for r in again] == [r.id for r in records]

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "test.fasta"
        records = parse_fasta_text(SAMPLE, DNA)
        write_fasta(records, path)
        assert read_fasta(path, DNA) == records

    def test_gzip_roundtrip(self, tmp_path):
        path = tmp_path / "test.fasta.gz"
        records = parse_fasta_text(SAMPLE, DNA)
        write_fasta(records, path)
        assert read_fasta(path, DNA) == records

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="abcdef123_", min_size=1, max_size=8),
                st.text(alphabet="ACGT", min_size=1, max_size=200),
            ),
            min_size=1,
            max_size=5,
        ),
        st.integers(min_value=1, max_value=80),
    )
    def test_property_roundtrip(self, items, width):
        records = [Sequence(text, DNA, id=rid) for rid, text in items]
        again = parse_fasta_text(format_fasta(records, width=width), DNA)
        assert [r.text for r in again] == [r.text for r in records]
        assert [r.id for r in again] == [r.id for r in records]


class TestHostileText:
    @given(st.text(), st.sampled_from(["protein", "dna"]), st.booleans())
    def test_any_text_parses_or_raises_value_error(self, text, alphabet, strict):
        try:
            records = parse_fasta_text(text, alphabet, strict=strict)
        except ValueError:
            return
        assert all(isinstance(record, Sequence) for record in records)
