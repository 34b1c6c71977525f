"""Shard execution (node side) and scan merging (coordinator side).

Bit-identity is the contract of this module.  Records of a database
scan are searched independently, so a node running
:class:`~repro.core.scan.DatabaseScanner` over its record slice
produces exactly the reports the single-node scanner would have
produced for those records.  Concatenating shard reports in shard
order therefore reproduces the full single-node scan — the
equivalence the acceptance tests assert byte-for-byte.
"""

from __future__ import annotations

from typing import Any

from ..core.scan import DatabaseScanner
from ..sequences.sequence import Sequence
from ..service.protocol import SCAN_PLACEHOLDER, JobSpec, finder_for
from .protocol import report_to_dict

__all__ = [
    "index_config_from_options",
    "merge_scan_reports",
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

    Returns ``None`` when indexing is off; ``index_k`` is the config's
    one field.
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
                promise_score(profile, finder.resolve_exchange(seq))
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
