"""Database scanning: repeat detection across many sequences.

The Repro web server's everyday job is not one titin — it is screening
whole protein sets for repeat-bearing candidates.  :class:`DatabaseScanner`
wraps :class:`~repro.core.api.RepeatFinder` with the practical plumbing
that requires: optional low-complexity masking, per-sequence summaries,
ranking, and a FASTA entry point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from .. import obs
from ..sequences.sequence import Sequence
from ..sequences.stats import mask_low_complexity
from .api import RepeatFinder
from .result import RepeatResult, RunStats

if TYPE_CHECKING:  # imported lazily at runtime (see DatabaseScanner.scan)
    from ..index.routing import IndexConfig
    from ..index.store import IndexStore

__all__ = [
    "SCAN_FORMAT",
    "SCAN_FORMAT_VERSION",
    "SequenceReport",
    "DatabaseScanner",
    "ScanDocument",
    "pair_by_id",
    "report_to_dict",
    "render_rank_table",
    "scan_to_payload",
    "load_scan_payload",
]

#: Format marker / schema version of the ``repro scan --json`` payload.
SCAN_FORMAT = "repro-scan"
SCAN_FORMAT_VERSION = 1


@dataclass(frozen=True)
class SequenceReport:
    """Summary of one scanned sequence.

    ``result`` is ``None`` exactly when the record failed, in which
    case ``error`` carries the failure description.  A failed record
    still produces a report — one bad sequence in a database scan must
    not discard the work done on every other record.
    """

    id: str
    length: int
    result: RepeatResult | None
    error: str | None = None
    #: Routing class assigned by the index tier ("skip"/"defer"/"full"),
    #: or ``None`` when the scan ran unindexed.
    routed: str | None = None

    @property
    def failed(self) -> bool:
        """Whether scanning this record raised instead of finishing."""
        return self.result is None

    @property
    def best_score(self) -> float:
        """Best top-alignment score (0 when no alignment was found)."""
        if self.result is None or not self.result.top_alignments:
            return 0.0
        return self.result.top_alignments[0].score

    @property
    def repeat_fraction(self) -> float:
        """Fraction of residues covered by delineated repeat copies."""
        if self.result is None or self.length == 0 or not self.result.repeats:
            return 0.0
        covered = np.zeros(self.length, dtype=bool)
        for repeat in self.result.repeats:
            for start, end in repeat.copies:
                covered[start - 1 : end] = True
        return float(covered.mean())

    @property
    def n_families(self) -> int:
        """Number of delineated repeat families."""
        if self.result is None:
            return 0
        return len(self.result.repeats)

    @property
    def is_repetitive(self) -> bool:
        """Whether the scan found at least one repeat family."""
        return self.n_families > 0


@dataclass
class DatabaseScanner:
    """Scan many sequences with one configuration and rank the hits.

    Parameters
    ----------
    finder:
        The configured single-sequence detector.  The scanner reuses
        this one finder — and therefore its engine instance (with its
        lane scratch buffers) and per-alphabet exchange matrices —
        across every record of a scan, instead of rebuilding scoring
        objects per sequence.
    mask:
        Apply low-complexity masking before scanning (recommended for
        real protein sets; masked residues score neutrally).
    mask_window / mask_threshold:
        Parameters of :func:`repro.sequences.stats.mask_low_complexity`.
    min_length:
        Sequences shorter than this are skipped (a split needs at least
        two residues; realistic repeats need far more).
    index:
        Optional :class:`repro.index.IndexConfig`.  When set, every
        record is profiled by the k-mer tier first: *skip*-class
        records (estimate below the finder's ``min_score``) report
        zero alignments in O(n) without entering the O(n³) pipeline,
        and the rest run the same search as without an index,
        *full*-class (repeat-promising) records first.  Reports keep
        input order regardless of execution order.
    index_store:
        Optional :class:`repro.index.IndexStore`; profiles are then
        loaded from / persisted to the content-addressed store, so a
        rerun of the same database rebuilds zero indices.
    """

    finder: RepeatFinder = field(default_factory=RepeatFinder)
    mask: bool = False
    mask_window: int = 12
    mask_threshold: float = 1.5
    min_length: int = 10
    index: "IndexConfig | None" = None
    index_store: "IndexStore | None" = None

    def __post_init__(self) -> None:
        #: Per-scan index-tier statistics (populated by indexed scans).
        self.index_stats: dict[str, Any] = {}

    def scan(self, sequences: Iterable[Sequence]) -> list[SequenceReport]:
        """Scan sequences; returns one report per scanned record, in
        input order.

        One loop serves both modes.  With an index, every record is
        profiled and routed first: skip-class records never reach the
        finder, the rest run *full* class first (most promising by
        estimate), then *defer*.  Without one, no profile is built,
        every record goes to the finder in input order, and ``routed``
        stays ``None``.  Either way a record that reaches the finder
        gets the search :meth:`RepeatFinder.find` runs on its own: the
        index decides which records are searched and in what order,
        never how.

        A record whose scan raises is recorded as a failed report
        (``result=None``, ``error`` set) and the scan continues with
        the remaining records.
        """
        config = self.index
        stats = {
            "records": 0,
            "skip": 0,
            "defer": 0,
            "full": 0,
            "failed": 0,
            "index_builds": 0,
            "index_loads": 0,
            "index_seconds": 0.0,
        }
        if config is not None:
            from ..index.routing import ROUTE_FULL, ROUTE_SKIP

            self.index_stats = stats
        reports: dict[int, SequenceReport] = {}
        pending: list[tuple[int, Sequence, Sequence, Any]] = []
        # Every skipped record of this scan reports the same (empty)
        # result object: most of a sparse database is skipped, and a
        # caller that keeps the reports keeps one result, not thousands.
        skipped = RepeatResult(
            top_alignments=[], repeats=[], stats=RunStats(engine="index-skip")
        )
        for order, seq in enumerate(sequences):
            if len(seq) < self.min_length:
                continue
            stats["records"] += 1
            try:
                target = (
                    mask_low_complexity(
                        seq, self.mask_window, self.mask_threshold
                    )
                    if self.mask
                    else seq
                )
                decision = (
                    None if config is None else self._route(target, config, stats)
                )
            except Exception as exc:  # noqa: BLE001 - per-record isolation
                stats["failed"] += 1
                reports[order] = self._failed_report(seq, exc)
                continue
            if decision is not None and decision.route == ROUTE_SKIP:
                # O(n) exit: an empty result, not a missing one — the
                # record was screened, and screening concluded nothing
                # above min_score can exist here.
                reports[order] = SequenceReport(
                    id=seq.id, length=len(seq), result=skipped, routed=decision.route
                )
            else:
                pending.append((order, seq, target, decision))
        if config is not None:
            pending.sort(
                key=lambda entry: (
                    entry[3].route != ROUTE_FULL,
                    -entry[3].estimate,
                    entry[0],
                )
            )
        for order, seq, target, decision in pending:
            try:
                result = self.finder.find(target)
            except Exception as exc:  # noqa: BLE001 - per-record isolation
                stats["failed"] += 1
                reports[order] = self._failed_report(seq, exc)
                continue
            reports[order] = SequenceReport(
                id=seq.id,
                length=len(seq),
                result=result,
                routed=None if decision is None else decision.route,
            )
        return [reports[order] for order in sorted(reports)]

    def _failed_report(self, seq: Sequence, exc: Exception) -> SequenceReport:
        return SequenceReport(
            id=seq.id,
            length=len(seq),
            result=None,
            error=f"{type(exc).__name__}: {exc}",
        )

    def _route(self, target: Sequence, config: "IndexConfig", stats: dict[str, Any]):
        """Profile ``target`` and classify it; counts into ``stats``."""
        from ..index.routing import classify

        started = time.perf_counter()
        profile, built = self._profile_for(target, config)
        stats["index_seconds"] += time.perf_counter() - started
        stats["index_builds" if built else "index_loads"] += 1
        decision = classify(
            profile,
            self.finder.resolve_exchange(target),
            min_score=self.finder.min_score,
            config=config,
        )
        obs.record("repro_index_routed_total", route=decision.route)
        stats[decision.route] += 1
        return decision

    def _profile_for(self, target: Sequence, config: "IndexConfig"):
        """(profile, built) from the store when present, else in-memory."""
        if self.index_store is not None:
            return self.index_store.build_or_load(target, config)
        from ..index.kmer import build_profile

        started = time.perf_counter()
        profile = build_profile(target, **config.profile_params())
        obs.record("repro_index_build_seconds", time.perf_counter() - started)
        return profile, True

    def rank(self, sequences: Iterable[Sequence]) -> list[SequenceReport]:
        """Scan and sort by best alignment score (descending), then id.

        Failed records sort after every successful one.
        """
        reports = self.scan(sequences)
        return sorted(reports, key=lambda r: (r.failed, -r.best_score, r.id))

    def annotate_scan(
        self,
        sequences: Iterable[Sequence],
        *,
        window: int = 0,
        msa: bool = True,
    ):
        """Scan ``sequences`` and build the annotation product surface.

        Returns a :class:`repro.annot.Annotation` — profile tracks,
        GFF3 and the HTML report are then pure renders of that object.
        The import is deferred so ``repro.core`` keeps no static
        dependency on the annotation layer.
        """
        from ..annot import annotate_scan as _annotate

        sequence_list = list(sequences)
        reports = self.scan(sequence_list)
        return _annotate(
            reports, pair_by_id(reports, sequence_list), window=window, msa=msa
        )


def pair_by_id(
    reports: Iterable[SequenceReport], sequences: Iterable[Sequence]
) -> list[Sequence | None]:
    """The record each report describes, matched by id.

    Reports may be a reordered subset of the records (ranking, skipped
    short records) and ids may repeat: the first unused record of a
    report's id wins, ``None`` when there is none.
    """
    by_id: dict[str, list[Sequence]] = {}
    for seq in sequences:
        by_id.setdefault(seq.id, []).append(seq)
    paired: list[Sequence | None] = []
    for report in reports:
        pool = by_id.get(report.id)
        paired.append(pool.pop(0) if pool else None)
    return paired


# ---------------------------------------------------------------------------
# Machine-readable scan output (``repro scan --json``)
# ---------------------------------------------------------------------------


def report_to_dict(report: SequenceReport, *, stats: bool = True) -> dict[str, Any]:
    """JSON form of one scanned record's report: a row of the rank
    table (:func:`render_rank_table`) around the result body.

    The scan document adds each record's residue text to it; the
    cluster ships it with ``stats=False`` (see
    :meth:`RepeatResult.to_dict`).
    """
    return {
        "id": report.id,
        "length": int(report.length),
        "routed": report.routed,
        "error": report.error,
        "result": (
            None if report.result is None else report.result.to_dict(stats=stats)
        ),
        "best_score": float(report.best_score),
        "n_families": int(report.n_families),
        "repeat_fraction": float(report.repeat_fraction),
    }


def render_rank_table(rows: list[dict[str, Any]], *, routed: bool = False) -> str:
    """The ranked text table of report rows (:func:`report_to_dict`).

    Rows sort by best score (descending), then id, failed records last
    — :meth:`DatabaseScanner.rank`'s order.  ``routed`` adds the index
    tier's routing class as a last column.
    """
    ranked = sorted(
        rows, key=lambda r: (r["result"] is None, -r["best_score"], r["id"])
    )
    lines = [
        f"{'rank':>4}  {'id':<24} {'len':>6} {'best':>7} "
        f"{'families':>8} {'repeat%':>8}" + ("  routed" if routed else "")
    ]
    for rank, row in enumerate(ranked, 1):
        head = f"{rank:>4}  {row['id'][:24]:<24} {row['length']:>6}"
        if row["result"] is None:
            lines.append(f"{head} FAILED: {row['error']}")
            continue
        lines.append(
            f"{head} {row['best_score']:>7g} {row['n_families']:>8} "
            f"{row['repeat_fraction']:>8.1%}"
            + (f"  {row['routed'] or '-'}" if routed else "")
        )
    return "\n".join(lines)


def scan_to_payload(
    reports: list[SequenceReport],
    sequences: Iterable[Sequence] = (),
    *,
    alphabet: str = "protein",
    index_stats: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """The ``repro scan --json`` document for ``reports``.

    ``sequences`` (matched to reports by :func:`pair_by_id`) embeds each
    record's residue text so ``repro annotate`` can rebuild
    consensus/MSA views offline, without the original FASTA.
    """
    records = [
        {
            **report_to_dict(report),
            "sequence": seq.text if seq is not None else None,
        }
        for report, seq in zip(reports, pair_by_id(reports, sequences))
    ]
    payload: dict[str, Any] = {
        "format": SCAN_FORMAT,
        "version": SCAN_FORMAT_VERSION,
        "alphabet": alphabet,
        "records": records,
    }
    if index_stats:
        payload["index_stats"] = index_stats
    return payload


@dataclass(frozen=True)
class ScanDocument:
    """A parsed ``repro scan --json`` payload.

    ``sequences`` parallels ``reports``; an entry is ``None`` when the
    document was written without residue text for that record (the
    annotation layer then falls back to coordinate-only artifacts).
    """

    alphabet: str
    reports: tuple[SequenceReport, ...]
    sequences: tuple[Sequence | None, ...]


def load_scan_payload(payload: dict[str, Any]) -> ScanDocument:
    """Validate and rebuild a scan document (inverse of
    :func:`scan_to_payload`)."""
    if not isinstance(payload, dict) or payload.get("format") != SCAN_FORMAT:
        raise ValueError(
            f"not a {SCAN_FORMAT} document (missing format marker)"
        )
    version = payload.get("version")
    if version != SCAN_FORMAT_VERSION:
        raise ValueError(
            f"unsupported {SCAN_FORMAT} version {version!r} "
            f"(expected {SCAN_FORMAT_VERSION})"
        )
    alphabet = payload.get("alphabet", "protein")
    reports: list[SequenceReport] = []
    sequences: list[Sequence | None] = []
    for record in payload.get("records", []):
        result = (
            None if record.get("result") is None
            else RepeatResult.from_dict(record["result"])
        )
        reports.append(
            SequenceReport(
                id=record.get("id", ""),
                length=int(record["length"]),
                result=result,
                error=record.get("error"),
                routed=record.get("routed"),
            )
        )
        text = record.get("sequence")
        sequences.append(
            None if text is None
            else Sequence(text, alphabet, id=record.get("id", ""))
        )
    return ScanDocument(
        alphabet=alphabet,
        reports=tuple(reports),
        sequences=tuple(sequences),
    )
