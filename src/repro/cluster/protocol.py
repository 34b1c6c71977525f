"""Control-plane protocol of the cluster (coordinator ⇄ node / client).

Every frame is a JSON object with a ``kind`` field, carried over the
:mod:`repro.cluster.transport` framing.  Nodes *pull*: a node sends
``ready`` whenever it has a free slot and the coordinator answers with
exactly one of ``lease`` / ``wait`` / ``shutdown``.  The coordinator
holds a ``ready`` it cannot serve until a lease exists, so the answer
comes the moment work does; ``wait`` only means the hold reached its
cap (the node's ``heartbeat_interval``) and carries nothing: "ask
again now".  ``heartbeat`` and ``result`` frames are one-way (no
response), which keeps the node's request/response loop trivially
race-free while a background thread heartbeats over the same channel.
A draining node (SIGTERM) finishes its current shard, then sends a
one-way ``goodbye`` instead of another ``ready`` — the coordinator
marks it drained (a clean exit, not a death) and stops counting it
toward capacity.

Clients ask ``job_status`` with a ``job_id`` and an optional ``wait``
(seconds): with it the coordinator holds the reply until the job
reaches a terminal state or ``wait`` passes, capped at
:data:`JOB_STATUS_WAIT_MAX` so the reply always beats the client's
request timeout.  A client that waits for a job loops on that, never
on a sleep.

Shards
------
A shard is the unit of leased work, of one kind, ``scan``: a
contiguous slice of a multi-record database scan.  Each record is
searched independently, so any partition of the records merges back
bit-identically (the :class:`~repro.core.scan.DatabaseScanner`
equivalence the acceptance tests assert).  A node answers a lease of
any other kind with a failed result.

Results are serialized with shortest-repr floats (plain ``json``), so
two payloads compare equal iff the underlying results are
bit-identical — the same discipline :mod:`repro.service.protocol`
uses for the content-addressed cache.
"""

from __future__ import annotations

from typing import Any

from ..core import scan as core_scan

__all__ = [
    "HELLO",
    "WELCOME",
    "HEARTBEAT",
    "GOODBYE",
    "READY",
    "LEASE",
    "WAIT",
    "SHUTDOWN",
    "RESULT",
    "SUBMIT_SCAN",
    "JOB_STATUS",
    "STATS",
    "METRICS",
    "ERROR",
    "OK",
    "JOB_STATUS_WAIT_MAX",
    "ProtocolError",
    "report_to_dict",
    "scan_shard",
]

# node / client -> coordinator
HELLO = "hello"
HEARTBEAT = "heartbeat"
GOODBYE = "goodbye"  # one-way: draining node leaving cleanly
READY = "ready"
RESULT = "result"
SUBMIT_SCAN = "submit_scan"
JOB_STATUS = "job_status"
STATS = "stats"
METRICS = "metrics"

# coordinator -> node / client
WELCOME = "welcome"
LEASE = "lease"
WAIT = "wait"
SHUTDOWN = "shutdown"
ERROR = "error"
OK = "ok"

#: Longest a ``job_status`` reply is held for its ``wait`` (seconds),
#: well below :class:`~repro.cluster.client.ClusterClient`'s 60 s
#: request timeout.
JOB_STATUS_WAIT_MAX = 30.0


class ProtocolError(RuntimeError):
    """The peer sent a frame the protocol does not allow here."""


def scan_shard(shard_id: int, spec: dict[str, Any], records: list[dict[str, str]],
               first_index: int, options: dict[str, Any] | None = None
               ) -> dict[str, Any]:
    """A ``scan`` shard: search ``records`` under the finder ``spec``.

    ``first_index`` is the offset of ``records[0]`` in the full record
    list, so merged reports come back in submission order.  ``options``
    carries the :class:`~repro.core.scan.DatabaseScanner` knobs (mask,
    mask_window, mask_threshold, min_length, index, index_k).
    """
    return {
        "kind": "scan",
        "shard_id": shard_id,
        "spec": spec,
        "records": records,
        "first_index": first_index,
        "options": dict(options or {}),
    }


def report_to_dict(report: core_scan.SequenceReport) -> dict[str, Any]:
    """Wire form of one scanned record's report: the scan's own report
    form (:func:`repro.core.scan.report_to_dict`) without work counters.

    Sharded and local runs must produce bit-identical *alignments and
    families*, while their counters legitimately differ (the same
    contract checkpoint resume documents).
    """
    return core_scan.report_to_dict(report, stats=False)
