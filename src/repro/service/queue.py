"""Bounded priority job queue with multi-process claims.

The queue is a maildir-style spool of marker files, so it needs no
broker process and survives kills of either side:

* ``queue/<key>`` — one empty marker per waiting job.  The key encodes
  ``(inverted priority, fair-share tag, submission nanotime, job id)``,
  so a plain lexicographic directory sort yields "highest priority
  first, smallest tag first within a priority, FIFO within a tag".
  The queue only sorts by the tag; the gateway issues it
  (:mod:`repro.gateway.admission`), and with every tag 0 the order is
  plain FIFO;
* ``claimed/<key>`` — markers atomically ``os.rename``-ed here by the
  worker that won the job.  Rename is atomic on POSIX: exactly one
  claimant succeeds, losers see ``FileNotFoundError`` and move on.

**Backpressure.**  The queue is bounded: when ``depth() >= capacity``,
:meth:`submit` raises :class:`BacklogFull` carrying a retry-after hint,
which the HTTP layer maps to ``429`` + ``Retry-After``.  Admission is
advisory under concurrent submitters (two racers may both pass the
check); the bound is a load-shedding valve, not an exact semaphore.

**Crash recovery.**  A marker stranded in ``claimed/`` by a killed
worker is moved back by :meth:`recover` when a pool starts; the job's
checkpoint (kept by the job store) makes the re-run incremental.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Callable

__all__ = ["BacklogFull", "SpoolQueue"]

#: Priorities outside this range are clamped into it for the file key.
_PRIORITY_LIMIT = 9_999


class BacklogFull(RuntimeError):
    """The queue is at capacity; retry after ``retry_after`` seconds."""

    def __init__(self, depth: int, capacity: int, retry_after: int) -> None:
        super().__init__(
            f"job queue full ({depth}/{capacity}); retry in {retry_after}s"
        )
        self.depth = depth
        self.capacity = capacity
        self.retry_after = retry_after

    def __reduce__(self):
        # The default BaseException pickle protocol replays cls(*args)
        # with the formatted message, which does not match this
        # three-argument constructor; spell out the real arguments so
        # the exception survives the worker process boundary.
        return (type(self), (self.depth, self.capacity, self.retry_after))


def _clamp(priority: int) -> int:
    return max(-_PRIORITY_LIMIT, min(_PRIORITY_LIMIT, int(priority)))


def _parse(key: str) -> tuple[int, int, str] | None:
    """``(priority, tag, job id)`` of a marker name, or ``None`` for a
    name that is not a marker (a stray file in the spool).

    A marker written before tags existed has three fields, its nanotime
    where the tag now is: it reads as a (large) tag, which is exactly
    how it sorts against four-field keys.
    """
    fields = key.split(".")
    if len(fields) < 3:
        return None
    try:
        return _PRIORITY_LIMIT + 10_000 - int(fields[0]), int(fields[1]), fields[-1]
    except ValueError:
        return None


class SpoolQueue:
    """Disk-backed bounded priority queue of job ids.

    Parameters
    ----------
    root:
        Spool directory (``queue/`` and ``claimed/`` live under it).
    capacity:
        Maximum jobs waiting + in flight before :meth:`submit` sheds
        load.  ``0`` means unbounded.
    """

    def __init__(self, root: str | os.PathLike, *, capacity: int = 64) -> None:
        self.root = Path(root)
        self.queued_dir = self.root / "queue"
        self.claimed_dir = self.root / "claimed"
        self.queued_dir.mkdir(parents=True, exist_ok=True)
        self.claimed_dir.mkdir(parents=True, exist_ok=True)
        self.capacity = int(capacity)
        #: Called after :meth:`submit` writes a marker (the server wakes
        #: its parked workers with it).
        self.on_submit: Callable[[], None] | None = None

    # -- producer side ---------------------------------------------------

    #: ``priority`` as a marker key carries it (what :meth:`tags` reports).
    clamp = staticmethod(_clamp)

    def depth(self) -> int:
        """Jobs waiting in the queue."""
        return sum(1 for _ in self.queued_dir.iterdir())

    def in_flight(self) -> int:
        """Jobs currently claimed by workers."""
        return sum(1 for _ in self.claimed_dir.iterdir())

    def retry_after_hint(self, depth: int) -> int:
        """Crude drain-time estimate used for the 429 Retry-After header."""
        return min(60, max(1, depth // 2))

    def submit(self, job_id: str, priority: int = 0, tag: int = 0) -> str:
        """Enqueue ``job_id``; raises :class:`BacklogFull` at capacity."""
        depth = self.depth() + self.in_flight()
        if self.capacity and depth >= self.capacity:
            raise BacklogFull(depth, self.capacity, self.retry_after_hint(depth))
        # The first field sorts ascending as priority falls.
        level = _PRIORITY_LIMIT - _clamp(priority) + 10_000
        key = f"{level:05d}.{tag:020d}.{time.time_ns():020d}.{job_id}"
        (self.queued_dir / key).touch()
        if self.on_submit is not None:
            self.on_submit()
        return key

    def head_tag(self, priority: int = 0) -> int | None:
        """The smallest tag waiting at ``priority`` (what :meth:`claim`
        hands out next at that level), or ``None`` when none waits."""
        waiting = filter(None, map(_parse, os.listdir(self.queued_dir)))
        level = _clamp(priority)
        return min((tag for at, tag, _ in waiting if at == level), default=None)

    def tags(self) -> dict[str, tuple[int, int]]:
        """``job id -> (priority, tag)`` of every marker, queued or claimed."""
        return {
            job_id: (priority, tag)
            for directory in (self.queued_dir, self.claimed_dir)
            for priority, tag, job_id in filter(
                None, map(_parse, os.listdir(directory))
            )
        }

    # -- consumer side ---------------------------------------------------

    def claim(self) -> str | None:
        """Atomically claim the highest-priority job id, or ``None``.

        Safe to call from many worker processes: ``os.rename`` hands
        each marker to exactly one claimant.
        """
        for key in sorted(os.listdir(self.queued_dir)):
            if _parse(key) is None:
                continue
            try:
                os.rename(self.queued_dir / key, self.claimed_dir / key)
            except FileNotFoundError:
                continue  # another worker won this marker
            return key.rsplit(".", 1)[-1]
        return None

    def _find(self, directory: Path, job_id: str) -> Path | None:
        suffix = f".{job_id}"
        for key in os.listdir(directory):
            if key.endswith(suffix):
                return directory / key
        return None

    def release(self, job_id: str) -> bool:
        """Move a claimed job back to the queue (drain / crash requeue)."""
        marker = self._find(self.claimed_dir, job_id)
        if marker is None:
            return False
        try:
            os.rename(marker, self.queued_dir / marker.name)
        except FileNotFoundError:
            return False
        return True

    def discard(self, job_id: str) -> bool:
        """Drop the job's marker wherever it is (terminal transitions)."""
        for directory in (self.claimed_dir, self.queued_dir):
            marker = self._find(directory, job_id)
            if marker is not None:
                try:
                    marker.unlink()
                except FileNotFoundError:
                    continue
                return True
        return False

    def recover(self) -> list[str]:
        """Requeue every claimed marker; returns the requeued job ids.

        Call only while no worker is running (pool startup): a marker
        in ``claimed/`` then necessarily belongs to a dead worker.
        """
        requeued = []
        for key in sorted(os.listdir(self.claimed_dir)):
            try:
                os.rename(self.claimed_dir / key, self.queued_dir / key)
            except FileNotFoundError:
                continue
            requeued.append(key.rsplit(".", 1)[-1])
        return requeued
