"""Shard execution (node side) and job completion (coordinator side).

Bit-identity is the contract of this module, in both shard kinds:

``scan`` shards
    Records of a database scan are searched independently, so a node
    running :class:`~repro.core.scan.DatabaseScanner` over its record
    slice produces exactly the reports the single-node scanner would
    have produced for those records.  Concatenating shard reports in
    shard order therefore reproduces the full single-node scan — the
    equivalence the acceptance tests assert byte-for-byte.

``rows`` shards
    In :func:`~repro.core.topalign.find_top_alignments`, every task
    starts at ``score = +inf``, so each split is aligned once under the
    *empty* (version-0) override triangle before anything is accepted.
    Those version-0 bottom rows are embarrassingly parallel; nodes
    compute them with the same engine call the sequential loop makes
    and ship them back bit-exact (dtype + raw bytes).
    :func:`finish_from_rows` then opens the finder's session over the
    rows — tasks carry ``score = row.max(), aligned_with = 0``,
    precisely the state a single-node run reaches after its first pass
    — and runs the same best-first driver, so the acceptance order,
    alignments and families match the single-node run exactly.  Work
    counters legitimately differ (the checkpoint-resume contract).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..align.lanes import OWED_LANES
from ..core.result import RepeatResult
from ..core.scan import DatabaseScanner
from ..sequences.sequence import Sequence
from ..service.protocol import SCAN_PLACEHOLDER, JobSpec, finder_for
from .protocol import report_to_dict

__all__ = [
    "finish_from_rows",
    "index_config_from_options",
    "merge_scan_reports",
    "run_rows_shard",
    "run_scan_shard",
    "scan_shard_priorities",
    "scan_spec_dict",
]

def scan_spec_dict(spec: JobSpec) -> dict[str, Any]:
    """A :class:`JobSpec` dict reusable across every record of a scan."""
    payload = spec.to_dict()
    payload["sequence"] = SCAN_PLACEHOLDER
    payload["seq_id"] = ""
    return payload


def index_config_from_options(options: dict[str, Any]):
    """The :class:`~repro.index.IndexConfig` an options dict asks for.

    Returns ``None`` when indexing is off.  Only the wire-safe knobs
    (``index_k``) are plumbed; the calibration knobs keep their
    defaults so every node routes identically.
    """
    if not options.get("index"):
        return None
    from ..index.routing import IndexConfig

    return IndexConfig(k=int(options.get("index_k", 0) or 0))


def run_scan_shard(payload: dict[str, Any]) -> dict[str, Any]:
    """Execute one ``scan`` shard; returns the wire-ready result.

    ``reports`` holds one dict per scanned record, in record order
    (records below the scanner's ``min_length`` are skipped, exactly as
    the single-node scanner skips them).
    """
    spec = JobSpec.from_dict(payload["spec"])
    options = payload.get("options") or {}
    scanner = DatabaseScanner(
        finder=finder_for(spec),
        mask=bool(options.get("mask", False)),
        mask_window=int(options.get("mask_window", 12)),
        mask_threshold=float(options.get("mask_threshold", 1.5)),
        min_length=int(options.get("min_length", 10)),
        index=index_config_from_options(options),
    )
    sequences = [
        Sequence(rec["sequence"].upper(), spec.alphabet, id=rec.get("id", ""))
        for rec in payload["records"]
    ]
    reports = scanner.scan(sequences)
    return {
        "shard_id": payload["shard_id"],
        "first_index": payload["first_index"],
        "n_records": len(payload["records"]),
        "reports": [report_to_dict(report) for report in reports],
    }


def _spec_sequence(spec: JobSpec) -> Sequence:
    return Sequence(spec.normalized_sequence(), spec.alphabet, id=spec.seq_id)


def run_rows_shard(payload: dict[str, Any]) -> dict[str, Any]:
    """Execute one ``rows`` shard: version-0 bottom rows for a split range.

    Uses the finder's own session state and goes out
    :data:`~repro.align.lanes.OWED_LANES` splits per engine batch, as
    the local first pass does; engines agree bit-for-bit across batch
    widths, so each row is byte-equal to
    ``engine.last_row(problem_for(r))`` and to the one the single-node
    loop would have cached.
    """
    spec = JobSpec.from_dict(payload["spec"])
    # A rows job owes every first pass, so it buys no bounds.
    state = finder_for(spec, prune=False).session(_spec_sequence(spec)).state
    splits = range(int(payload["r_start"]), int(payload["r_stop"]))
    rows = []
    for at in range(0, len(splits), OWED_LANES):
        chunk = splits[at : at + OWED_LANES]
        filled, _seconds = state.fill([state.problem_for(r) for r in chunk])
        rows.extend((int(r), np.asarray(row)) for r, row in zip(chunk, filled))
    return {"shard_id": payload["shard_id"], "rows": rows}


def scan_shard_priorities(
    spec: JobSpec,
    records: list[dict[str, str]],
    ranges: list[tuple[int, int]],
    options: dict[str, Any],
) -> list[int]:
    """Per-shard lease priority: the best k-mer promise in each range.

    O(total record length) — one profile per record, no kernel work —
    so the coordinator can order scan shards most-promising-first
    before any lease is issued.  A record that fails to profile simply
    contributes no promise (the shard still runs; nodes isolate
    per-record failures themselves).
    """
    config = index_config_from_options(options)
    if config is None:
        return [0] * len(ranges)
    from ..index.kmer import build_profile
    from ..index.routing import promise_score

    finder = finder_for(spec)
    promises: list[float] = []
    for rec in records:
        try:
            seq = Sequence(
                rec["sequence"].upper(), spec.alphabet, id=rec.get("id", "")
            )
            profile = build_profile(seq, **config.profile_params())
            promises.append(
                promise_score(profile, finder.resolve_exchange(seq), config)
            )
        except Exception:  # noqa: BLE001 - promise is advisory only
            promises.append(0.0)
    return [
        int(round(max(promises[start:stop], default=0.0)))
        for start, stop in ranges
    ]


def merge_scan_reports(shard_results: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """Concatenate shard reports in shard order (the full scan's output)."""
    merged: list[dict[str, Any]] = []
    for shard in shard_results:
        merged.extend(shard["reports"])
    return merged


def finish_from_rows(
    spec: JobSpec, rows: dict[int, np.ndarray]
) -> RepeatResult:
    """Finish a sharded single-sequence job from its version-0 rows.

    Opens the finder's session over the node-computed bottom rows and
    runs it to ``spec.top_alignments``.  Seeding is sound because in a
    single-node run every task (score ``+inf``) is aligned exactly once
    at triangle version 0 before the first acceptance: the cached rows
    are byte-for-byte what those first alignments leave behind, and
    :meth:`~repro.core.topalign.TopAlignmentState.make_tasks` starts
    each task at ``score = row.max(), aligned_with = 0`` — so the
    deterministic ``(score, -r)`` heap replays the identical acceptance
    order.
    """
    finder = finder_for(spec)
    sequence = _spec_sequence(spec)
    missing = [r for r in range(1, len(sequence)) if r not in rows]
    if missing:
        raise ValueError(f"missing version-0 rows for split(s) {missing[:8]}")
    session = finder.session(sequence, rows=rows)
    session.stats.alignments += len(sequence) - 1  # the rows the nodes computed
    session.extend(spec.top_alignments)
    return finder.result(session)
