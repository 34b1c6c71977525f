"""Reference outputs: what every pass and every job is checked against.

A record's *key* is the SHA-256 of its accepted top alignments
``(r, score, pairs)`` and its repeat-family copies, taken from the
program's user-visible JSON (scan document record, service result
payload or cluster report — all three carry ``top_alignments`` and
``repeats``).  Work counters are not part of the key: they legitimately
differ between execution paths.

For the default corpus the keys are checked in under ``golden/`` (so a
change that moves the reference configuration itself is caught); for
any other corpus or size the benchmark computes them, after the timed
passes, with pruning, index and batching off.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def record_key(result: dict[str, Any] | None) -> str:
    """Canonical digest of one record's tops and family copies."""
    if result is None:
        return "no-result"
    canonical = [
        [[a["r"], a["score"], a["pairs"]] for a in result["top_alignments"]],
        [rep["copies"] for rep in result["repeats"]],
    ]
    text = json.dumps(canonical, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def document_keys(document: str) -> dict[str, str]:
    """Record id → key for a ``scan_to_payload`` JSON document.

    A record that carries an ``error`` gets a key no reference has.
    """
    keys: dict[str, str] = {}
    for record in json.loads(document)["records"]:
        failed = record.get("error") is not None
        keys[record["id"]] = "error" if failed else record_key(record["result"])
    return keys


def golden_path(workload: str) -> Path:
    return GOLDEN_DIR / f"{workload}.json"


def load_golden(
    workload: str, corpus: int, size: dict[str, Any]
) -> dict[str, str] | None:
    """The checked-in keys (by corpus record id) when they were made for
    this corpus and size."""
    path = golden_path(workload)
    if not path.exists():
        return None
    payload = json.loads(path.read_text(encoding="utf-8"))
    if payload["corpus"] != corpus or payload["size"] != size:
        return None
    return payload["records"]


def write_golden(
    workload: str, corpus: int, size: dict[str, Any], keys: dict[str, str]
) -> Path:
    GOLDEN_DIR.mkdir(exist_ok=True)
    path = golden_path(workload)
    payload = {"corpus": corpus, "size": size, "records": keys}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path
