"""Per-tenant idempotency keys for ``POST /jobs``.

A client that retries a submission (connection drop, 5xx, its own
crash) sends the same ``Idempotency-Key`` header; the gateway then
returns the *original* job record instead of admitting a duplicate.
Keys are scoped per tenant — two tenants reusing the same key string
never collide — and stored on disk, so replays survive a server
restart.

Concurrency is the interesting part.  Two duplicate POSTs can race
before the first one has a job id.  The store resolves the race with
the same primitive the spool queue uses for claims — an atomic
filesystem operation:

* the **winner** creates ``<key>.lock`` with ``O_CREAT|O_EXCL``
  (exactly one creator succeeds), admits the job, then atomically
  renames the final ``{job_id, digest}`` record into place and drops
  the lock;
* every **loser** sees the lock, polls briefly for the final record,
  and replays it — or, if the winner *aborted* (its admission was quota-
  rejected), retakes the lock and becomes the winner itself;
* a loser that outwaits ``wait_timeout`` raises
  :class:`IdempotencyConflict`, which the HTTP layer maps to ``409``
  (the request is already in flight; retry, don't duplicate).

A crashed winner cannot wedge the key forever: locks older than
``stale_lock_seconds`` are broken and retaken.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

from .. import durable

__all__ = ["IdempotencyConflict", "IdempotencyStore", "PendingTicket"]


class IdempotencyConflict(RuntimeError):
    """A duplicate request is in flight and did not finish in time (409)."""


def _write_final(final: Path, job_id: str, digest: str) -> None:
    record = {"job_id": job_id, "digest": digest, "created": time.time()}
    durable.atomic_write(final, json.dumps(record, sort_keys=True).encode("utf-8"))


class PendingTicket:
    """The winner's handle on a claimed key: commit or abort exactly once."""

    def __init__(self, store: "IdempotencyStore", final: Path, lock: Path) -> None:
        self._store = store
        self._final = final
        self._lock = lock
        self.settled = False

    def commit(self, job_id: str, digest: str) -> None:
        """Bind the key to the admitted job (atomic rename, then unlock)."""
        if self.settled:
            return
        try:
            _write_final(self._final, job_id, digest)
        finally:
            # A failed write must not hold the key until the lock is stale.
            self._unlock()

    def abort(self) -> None:
        """Release the key unbound (admission failed; a retry may win it)."""
        if self.settled:
            return
        self._unlock()

    def _unlock(self) -> None:
        self.settled = True
        try:
            self._lock.unlink()
        except OSError:
            pass


class IdempotencyStore:
    """File-backed ``(tenant, key) → {job_id, digest}`` map."""

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        wait_timeout: float = 10.0,
        poll_interval: float = 0.01,
        stale_lock_seconds: float = 60.0,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.wait_timeout = wait_timeout
        self.poll_interval = poll_interval
        self.stale_lock_seconds = stale_lock_seconds

    def _final_path(self, tenant: str, key: str) -> Path:
        # Keys are client-chosen free text; hashing keeps the filename
        # fixed-width and path-safe without restricting the charset.
        hashed = hashlib.sha256(key.encode("utf-8")).hexdigest()
        directory = self.root / tenant
        directory.mkdir(parents=True, exist_ok=True)
        return directory / f"{hashed}.json"

    def peek(self, tenant: str, key: str) -> dict | None:
        """The committed record for ``key``, if any (no claim attempt)."""
        return self._read(self._final_path(tenant, key))

    @staticmethod
    def _read(final: Path) -> dict | None:
        record = durable.read_json(final)
        return record if isinstance(record, dict) else None

    def claim(self, tenant: str, key: str) -> dict | PendingTicket:
        """Resolve ``key``: a replay record (dict) or a winner's ticket.

        Exactly one concurrent caller per key gets a
        :class:`PendingTicket`; the rest block (bounded) until the
        winner commits and then receive the committed record.
        """
        final = self._final_path(tenant, key)
        lock = final.parent / f"{final.name}.lock"
        deadline = time.monotonic() + self.wait_timeout
        while True:
            committed = self._read(final)
            if committed is not None:
                return committed
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                self._break_stale_lock(lock)
                if time.monotonic() > deadline:
                    raise IdempotencyConflict(
                        f"idempotency key already in flight for tenant {tenant!r}"
                    ) from None
                # Bounded wait for the racing winner; not a service
                # handler hot loop — the winner commits in milliseconds.
                time.sleep(self.poll_interval)
                continue
            os.close(fd)
            # Won the lock — but the winner that held it before us may
            # have committed between our read and our open.
            committed = self._read(final)
            if committed is not None:
                try:
                    lock.unlink()
                except OSError:
                    pass
                return committed
            return PendingTicket(self, final, lock)

    def bind(self, tenant: str, key: str, job_id: str, digest: str) -> None:
        """Unconditionally (re)bind ``key`` — the mapped-job-vanished path."""
        _write_final(self._final_path(tenant, key), job_id, digest)

    def _break_stale_lock(self, lock: Path) -> None:
        try:
            age = time.time() - lock.stat().st_mtime
        except OSError:
            return  # already gone — the next loop iteration retries
        if age > self.stale_lock_seconds:
            try:
                lock.unlink()
            except OSError:
                pass

    def entries(self, tenant: str | None = None) -> int:
        pattern = f"{tenant}/*.json" if tenant else "*/*.json"
        return sum(1 for _ in self.root.glob(pattern))
