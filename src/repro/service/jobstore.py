"""Durable job state: records, progress events, checkpoints.

The store is the single source of truth shared by the server process
and every worker process — all coordination happens through files under
one data directory, so a killed worker loses nothing that was already
durable:

``jobs/<id>.json``
    the :class:`JobRecord` (atomic rewrite on every transition);
``events/<id>.jsonl``
    append-only progress stream (one JSON object per line) — what
    ``GET /jobs/<id>/events`` tails;
``checkpoints/<id>.npz``
    the search state, written via :mod:`repro.core.checkpoint` every
    ``workers.CHECKPOINT_SECONDS``, so a resumed job continues mid-run;
``cancel/<id>``
    a flag file; workers poll it between acceptances;
``owners/<digest>.<tenant>``
    a grant marker: the tenant was admitted for a job with this result
    digest, so ``GET /results/<digest>`` may serve it (the gateway's
    tenant-scoping of the shared content-addressed cache).

Writers are disjoint by construction — the server writes a record at
admission and cancellation, the claiming worker owns it while running —
so plain atomic rewrites are enough; no cross-process record lock is
needed.
"""

from __future__ import annotations

import json
import os
import re
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from .. import durable
from ..core.checkpoint import save_checkpoint
from .protocol import JobState, ProgressEvent

__all__ = ["JobRecord", "JobStore"]


@dataclass
class JobRecord:
    """Everything durable about one job except its result payload.

    The result itself lives in the content-addressed cache under
    ``digest``; the record only carries lifecycle metadata.
    """

    id: str
    spec: dict[str, Any]
    digest: str
    state: str = JobState.QUEUED
    priority: int = 0
    #: Owning tenant (gateway admission); "" on pre-gateway records.
    tenant: str = ""
    created: float = 0.0
    started: float = 0.0
    finished: float = 0.0
    attempts: int = 0
    worker: str = ""
    error: str = ""
    served_from_cache: bool = False
    found: int = 0

    @property
    def terminal(self) -> bool:
        return self.state in JobState.TERMINAL

    def to_dict(self) -> dict[str, Any]:
        """The fields, shallow: every record write calls this."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "JobRecord":
        """The record ``payload`` holds; raises ``TypeError`` or
        ``ValueError`` when it holds none (not an object, a field
        missing, an unknown state, a digest that is not SHA-256 hex)."""
        if not isinstance(payload, dict):
            raise ValueError("a job record is a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        record = cls(**{k: v for k, v in payload.items() if k in known})
        if record.state not in JobState.ALL or not re.fullmatch(
            "[0-9a-f]{64}", record.digest
        ):
            raise ValueError(f"not a job record: {record.state!r}, {record.digest!r}")
        return record


def _unlink(*paths: Path) -> None:
    for path in paths:
        try:
            path.unlink()
        except OSError:
            pass


class JobStore:
    """File-backed job metadata under one service data directory."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.events_dir = self.root / "events"
        self.checkpoints_dir = self.root / "checkpoints"
        self.cancel_dir = self.root / "cancel"
        self.workers_dir = self.root / "workers"
        self.owners_dir = self.root / "owners"
        for d in (
            self.jobs_dir,
            self.events_dir,
            self.checkpoints_dir,
            self.cancel_dir,
            self.workers_dir,
            self.owners_dir,
        ):
            d.mkdir(parents=True, exist_ok=True)
        #: Called with the job id after every :meth:`append_event` and
        #: :meth:`finish` — every lifecycle transition is one of them —
        #: so a process can tell a waiter without it polling the files.
        self.on_event: Callable[[str], None] | None = None

    # -- records ---------------------------------------------------------

    def new_job(
        self, spec: dict[str, Any], digest: str, priority: int = 0, tenant: str = ""
    ) -> JobRecord:
        """Create and persist a fresh queued record."""
        record = JobRecord(
            id=uuid.uuid4().hex[:16],
            spec=spec,
            digest=digest,
            priority=priority,
            tenant=tenant,
            created=time.time(),
        )
        self.put(record)
        return record

    def _job_path(self, job_id: str) -> Path:
        if not job_id or "/" in job_id or job_id.startswith("."):
            raise ValueError(f"bad job id: {job_id!r}")
        return self.jobs_dir / f"{job_id}.json"

    def put(self, record: JobRecord) -> None:
        """Atomically (re)write ``record``."""
        durable.atomic_write(
            self._job_path(record.id),
            json.dumps(record.to_dict(), sort_keys=True).encode("utf-8"),
        )

    def get(self, job_id: str) -> JobRecord | None:
        """The record, or ``None`` when it is missing or is not one."""
        try:
            record = JobRecord.from_dict(durable.read_json(self._job_path(job_id)))
        except (TypeError, ValueError):
            return None
        return record if record.id == job_id else None

    def update(self, job_id: str, **fields: Any) -> JobRecord | None:
        """Read-modify-write ``fields`` into the record (last write wins)."""
        record = self.get(job_id)
        if record is None:
            return None
        for key, value in fields.items():
            setattr(record, key, value)
        self.put(record)
        return record

    def finish(
        self,
        job_id: str,
        state: str,
        *,
        event: str | None = None,
        event_data: dict[str, Any] | None = None,
        **fields: Any,
    ) -> JobRecord | None:
        """The one terminal transition: append the event (named after
        the state unless ``event`` says otherwise), record ``state``
        (plus ``fields``) with its finish time, and clear the job's
        checkpoint and cancel marker — nothing but the record and its
        event log outlives a finished job.

        The event goes first, so whoever reads a terminal record and
        then the log has every event; ``on_event`` fires once, after
        the record.
        """
        self._append(job_id, event or state, event_data or {})
        record = self.update(job_id, state=state, finished=time.time(), **fields)
        _unlink(self.checkpoint_path(job_id), self.cancel_dir / job_id)
        if self.on_event is not None:
            self.on_event(job_id)
        return record

    def delete(self, job_id: str) -> None:
        """Remove every trace of a job (admission rollback)."""
        _unlink(
            self._job_path(job_id),
            self.events_dir / f"{job_id}.jsonl",
            self.checkpoint_path(job_id),
            self.cancel_dir / job_id,
        )

    def list_ids(self) -> list[str]:
        return sorted(p.stem for p in self.jobs_dir.glob("*.json"))

    def states(self) -> dict[str, int]:
        """Job counts by lifecycle state (scans every record)."""
        counts = dict.fromkeys(JobState.ALL, 0)
        for job_id in self.list_ids():
            record = self.get(job_id)
            if record is not None:
                counts[record.state] = counts.get(record.state, 0) + 1
        return counts

    # -- result ownership --------------------------------------------------

    def grant_result_access(self, digest: str, tenant: str) -> None:
        """Record that ``tenant`` may read the result under ``digest``.

        The result cache is content-addressed and shared — two tenants
        submitting the same sequence converge on one digest — so
        *reading* a cached result is gated by an explicit per-tenant
        grant made at admission, never by guessing a digest.
        """
        if not tenant:
            return
        (self.owners_dir / f"{digest}.{tenant}").touch()

    def result_access(self, digest: str, tenant: str) -> bool:
        """True when ``tenant`` was granted access to ``digest``."""
        if not tenant:
            return False
        return (self.owners_dir / f"{digest}.{tenant}").exists()

    # -- progress events -------------------------------------------------

    def append_event(self, job_id: str, event: str, **data: Any) -> None:
        """Append one progress line (atomic for short O_APPEND writes)."""
        self._append(job_id, event, data)
        if self.on_event is not None:
            self.on_event(job_id)

    def _append(self, job_id: str, event: str, data: dict[str, Any]) -> None:
        line = ProgressEvent(event=event, t=time.time(), data=data).to_line()
        with open(self.events_dir / f"{job_id}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(line + "\n")

    def read_events(self, job_id: str, since: int = 0) -> list[dict[str, Any]]:
        """Parsed events after line index ``since`` (0 = from the start)."""
        try:
            with open(self.events_dir / f"{job_id}.jsonl", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError:
            return []
        events = []
        for line in lines[since:]:
            try:
                events.append(json.loads(line))
            except ValueError:
                continue  # torn trailing line mid-append
        return events

    # -- checkpoints -----------------------------------------------------

    def checkpoint_path(self, job_id: str) -> Path:
        return self.checkpoints_dir / f"{job_id}.npz"

    def save_job_checkpoint(self, job_id: str, state) -> None:
        """Checkpoint ``state`` for ``job_id`` (atomic via core.checkpoint),
        and write the tops it holds into the record's ``found``."""
        save_checkpoint(state, self.checkpoint_path(job_id))
        self.update(job_id, found=state.n_found)

    # -- cancellation ----------------------------------------------------

    def request_cancel(self, job_id: str) -> None:
        (self.cancel_dir / job_id).touch()

    def cancel_requested(self, job_id: str) -> bool:
        return (self.cancel_dir / job_id).exists()

    # -- worker stats ----------------------------------------------------

    def write_worker_stats(self, tag: str, stats: dict[str, Any]) -> None:
        """Publish one worker's counters (atomic rewrite)."""
        durable.atomic_write(
            self.workers_dir / f"{tag}.json",
            json.dumps(stats, sort_keys=True).encode("utf-8"),
        )

    def worker_stats(self) -> dict[str, dict[str, Any]]:
        """Every published worker's counters, keyed by worker tag."""
        out: dict[str, dict[str, Any]] = {}
        for path in sorted(self.workers_dir.glob("*.json")):
            stats = durable.read_json(path)
            if isinstance(stats, dict):
                out[path.stem] = stats
        return out
