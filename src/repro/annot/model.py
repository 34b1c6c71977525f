"""The annotation object model: one scan -> three artifacts.

Turns scan results plus the core consensus/MSA machinery into the three
artifacts a downstream consumer actually ingests:

* **profile tracks** — windowed repeat-copy coverage per sequence
  (JSON + wig-style text), see :mod:`repro.annot.tracks`;
* **GFF3** — one ``repeat_region`` per family with ``repeat_unit``
  children, validated in-repo, see :mod:`repro.annot.gff`;
* **HTML report** — a single self-contained file with sparklines,
  family tables and collapsible MSA views, see
  :mod:`repro.annot.report_html`.

This layer consumes :class:`repro.core.report.FamilyModel` and scan
results only — it never reaches into the alignment kernels (lint rule
RPR020 enforces that boundary).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Iterable, Sequence as SequenceT

from .. import obs
from ..core.report import FamilyModel, extract_families
from ..core.result import RepeatResult
from ..core.scan import ScanDocument, SequenceReport
from ..sequences.sequence import Sequence
from .gff import render_gff3, validate_gff3
from .report_html import render_html
from .tracks import ProfileTrack, build_track, render_wig

__all__ = [
    "Annotation",
    "PROFILE_FORMAT",
    "PROFILE_FORMAT_VERSION",
    "SequenceAnnotation",
    "annotate_document",
    "annotate_result",
    "annotate_scan",
]

PROFILE_FORMAT = "repro-profile"
PROFILE_FORMAT_VERSION = 1


def _rendered(fmt: str, start: float) -> None:
    obs.record("repro_annot_render_seconds", perf_counter() - start, format=fmt)
    obs.record("repro_annot_reports_total", format=fmt)


@dataclass(frozen=True)
class SequenceAnnotation:
    """One scanned sequence's annotation: families plus its profile."""

    sequence_id: str
    length: int
    families: tuple[FamilyModel, ...]
    track: ProfileTrack | None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class Annotation:
    """A full annotation run over a scanned database.

    The three renderers are pure functions of this object, so any
    artifact can be regenerated from a cached scan without re-running
    alignment.
    """

    sequences: tuple[SequenceAnnotation, ...]

    @property
    def n_families(self) -> int:
        return sum(len(entry.families) for entry in self.sequences)

    def gff3(self) -> str:
        """The validated GFF3 track for every successful sequence."""
        start = perf_counter()
        text = render_gff3(
            (entry.sequence_id, entry.length, list(entry.families))
            for entry in self.sequences
            if entry.ok
        )
        _rendered("gff3", start)
        return text

    def profile_payload(self) -> dict[str, Any]:
        """The ``profile.json`` document (plain JSON-serialisable)."""
        start = perf_counter()
        records = []
        total_copy_residues = 0
        for entry in self.sequences:
            record: dict[str, Any] = {"id": entry.sequence_id}
            if entry.error is not None:
                record["error"] = entry.error
            elif entry.track is not None:
                record.update(entry.track.to_dict())
                total_copy_residues += sum(
                    end - start_ + 1
                    for model in entry.families
                    for start_, end in model.copies
                )
            records.append(record)
        payload = {
            "format": PROFILE_FORMAT,
            "version": PROFILE_FORMAT_VERSION,
            "sequences": records,
            "total_copy_residues": total_copy_residues,
        }
        _rendered("json", start)
        return payload

    def profile_json(self) -> str:
        return json.dumps(self.profile_payload()) + "\n"

    def html(self, *, title: str = "repro repeat annotation") -> str:
        """The self-contained single-file HTML report."""
        start = perf_counter()
        text = render_html(
            (
                (
                    entry.sequence_id,
                    entry.length,
                    entry.track,
                    list(entry.families),
                    entry.error,
                )
                for entry in self.sequences
            ),
            title=title,
        )
        _rendered("html", start)
        return text

    def wig(self) -> str:
        """Wig-style text form of the profile tracks."""
        return render_wig(
            entry.track for entry in self.sequences if entry.track is not None
        )


def _families_without_sequence(result: RepeatResult) -> list[FamilyModel]:
    """Coordinate-only family models for a scan saved without residues.

    Consensus, unit analysis and MSA need the sequence text; when a scan
    payload omitted it we still annotate spans, copy counts and column
    counts so GFF3/profile output stays available.
    """
    models = []
    for repeat in result.repeats:
        copies = tuple(repeat.copies)
        mean_len = sum(e - s + 1 for s, e in copies) / len(copies)
        models.append(
            FamilyModel(
                family=repeat.family,
                copies=copies,
                columns=repeat.columns,
                unit_length=mean_len,
                consensus="",
                score=0.0,
                identity=0.0,
            )
        )
    return models


def annotate_result(
    sequence: Sequence,
    result: RepeatResult,
    *,
    window: int = 0,
    msa: bool = True,
) -> SequenceAnnotation:
    """Annotate one sequence's finished scan result."""
    families = tuple(extract_families(sequence, result, msa=msa))
    track = build_track(
        sequence.id,
        len(sequence),
        ((model.family, model.copies) for model in families),
        window=window,
    )
    return SequenceAnnotation(
        sequence_id=sequence.id,
        length=len(sequence),
        families=families,
        track=track,
        error=None,
    )


def annotate_scan(
    reports: Iterable[SequenceReport],
    sequences: SequenceT[Sequence | None] = (),
    *,
    window: int = 0,
    msa: bool = True,
) -> Annotation:
    """Annotate a whole scan (``reports`` aligned with ``sequences``).

    ``sequences`` may be shorter than ``reports`` or hold ``None``
    entries (a scan payload saved without residue text); those records
    fall back to coordinate-only family models.
    """
    entries: list[SequenceAnnotation] = []
    sequence_list = list(sequences)
    for index, report in enumerate(reports):
        sequence = sequence_list[index] if index < len(sequence_list) else None
        if report.error is not None or report.result is None:
            entries.append(
                SequenceAnnotation(
                    sequence_id=report.id,
                    length=report.length,
                    families=(),
                    track=None,
                    error=report.error or "scan produced no result",
                )
            )
            continue
        if sequence is not None:
            entries.append(
                annotate_result(sequence, report.result, window=window, msa=msa)
            )
            continue
        families = tuple(_families_without_sequence(report.result))
        track = build_track(
            report.id,
            report.length,
            ((model.family, model.copies) for model in families),
            window=window,
        )
        entries.append(
            SequenceAnnotation(
                sequence_id=report.id,
                length=report.length,
                families=families,
                track=track,
                error=None,
            )
        )
    return Annotation(sequences=tuple(entries))


def annotate_document(
    document: ScanDocument, *, window: int = 0, msa: bool = True
) -> Annotation:
    """Annotate a saved ``repro scan --json`` document."""
    return annotate_scan(
        document.reports, document.sequences, window=window, msa=msa
    )
