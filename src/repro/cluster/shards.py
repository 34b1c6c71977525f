"""Shard planning and the lease-based shard scheduler.

The scheduling model reproduces §4's fault-tolerant work distribution
with today's vocabulary:

* every shard is handed out as a **lease** — an assignment with a
  deadline.  A node that dies (SIGKILL, heartbeat loss, connection
  drop) never loses work: its leases are *released* back to the
  pending queue and reassigned, so the run completes as long as one
  node survives;
* an expired lease is not proof of death, only of slowness, so the
  shard is simply leased again — the **first** result for a shard
  wins and late duplicates are dropped (results are deterministic, so
  which copy wins is unobservable);
* failed shards retry with **jittered exponential backoff** (bounded
  attempts) so one poisoned shard cannot hot-loop the cluster;
* an idle node with nothing pending **steals** work: it gets a
  duplicate lease on the longest-running in-flight shard — the same
  speculation-over-idleness trade the paper's master makes when it
  hands out tasks it may have to discard.

The scheduler is pure bookkeeping (no sockets, no threads, no clock of
its own — callers pass ``now``), which is what makes its failover
properties unit-testable without a cluster.
"""

from __future__ import annotations

import math
import random
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = [
    "Lease",
    "Shard",
    "ShardScheduler",
    "merge_shard_results",
    "plan_record_shards",
]


@dataclass(frozen=True)
class Shard:
    """One leasable unit of work (payload already wire-encodable).

    ``priority`` orders the initial pending queue (higher first; ties
    by shard id): the coordinator sets it from the k-mer index promise
    of each record range so repeat-bearing shards are leased first and
    first-result-wins leases finish the interesting work early.
    """

    shard_id: int
    payload: dict[str, Any]
    priority: int = 0


@dataclass
class Lease:
    """One live assignment of a shard to a node."""

    lease_id: int
    shard: Shard
    node_id: str
    issued_at: float
    deadline: float
    attempt: int
    stolen: bool = False


@dataclass
class _ShardState:
    shard: Shard
    attempt: int = 0
    not_before: float = 0.0
    done: bool = False
    result: Any = None
    leases: list[int] = field(default_factory=list)  # live lease ids


def plan_record_shards(n_records: int, shard_size: int) -> list[tuple[int, int]]:
    """Contiguous ``[start, stop)`` record ranges of at most ``shard_size``."""
    if shard_size < 1:
        raise ValueError("shard_size must be >= 1")
    return [
        (start, min(start + shard_size, n_records))
        for start in range(0, n_records, shard_size)
    ]


def merge_shard_results(results: dict[int, Any], n_shards: int) -> list[Any]:
    """Shard results in shard-id order (raises if any shard is missing)."""
    missing = [i for i in range(n_shards) if i not in results]
    if missing:
        raise ValueError(f"missing results for shard(s) {missing}")
    return [results[i] for i in range(n_shards)]


class ShardScheduler:
    """Lease bookkeeping for one job's shards.

    Thread-safe; every time-dependent method takes ``now`` explicitly
    (monotonic seconds) so tests can drive failover deterministically.
    """

    def __init__(
        self,
        shards: Iterable[Shard],
        *,
        lease_seconds: float = 60.0,
        max_attempts: int = 4,
        backoff_base: float = 0.25,
        backoff_cap: float = 10.0,
        max_duplicates: int = 2,
        seed: int = 0x5EED,
    ) -> None:
        self._lock = threading.Lock()
        self._states = {s.shard_id: _ShardState(shard=s) for s in shards}
        if not self._states:
            raise ValueError("a job needs at least one shard")
        # Most-promising-first: priority descending, shard id ascending.
        # Requeues (backoff, released leases) append at the tail — a
        # retried shard has already had its fair shot at the front.
        self._pending: deque[int] = deque(
            sorted(
                self._states,
                key=lambda sid: (-self._states[sid].shard.priority, sid),
            )
        )
        self._leases: dict[int, Lease] = {}
        self._next_lease_id = 0
        self.lease_seconds = lease_seconds
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.max_duplicates = max_duplicates
        #: Seeded: backoff jitter must never make a failover test flaky.
        self._rng = random.Random(seed)
        # counters (read under the lock via stats())
        self.leases_issued = 0
        self.leases_expired = 0
        self.leases_stolen = 0
        self.leases_released = 0
        self.retries = 0
        self.duplicates_dropped = 0
        self.failed_shard: int | None = None
        self.failure: str | None = None

    # -- assignment ------------------------------------------------------

    def next_lease(self, node_id: str, now: float) -> Lease | None:
        """Lease the next runnable shard to ``node_id``, stealing if idle.

        Returns ``None`` when there is nothing useful for this node to
        do right now (backoff pending, or all in-flight work already
        duplicated up to ``max_duplicates``).
        """
        with self._lock:
            while self._pending:
                shard_id = self._pending[0]
                state = self._states[shard_id]
                if state.done:
                    self._pending.popleft()
                    continue
                if state.not_before > now:
                    break  # backoff: head stays queued until eligible
                self._pending.popleft()
                return self._issue(state, node_id, now, stolen=False)
            return self._steal(node_id, now)

    def _issue(  # repro-lint: holds-lock
        self, state: _ShardState, node_id: str, now: float, *, stolen: bool
    ) -> Lease:
        self._next_lease_id += 1
        state.attempt += 1
        lease = Lease(
            lease_id=self._next_lease_id,
            shard=state.shard,
            node_id=node_id,
            issued_at=now,
            deadline=now + self.lease_seconds,
            attempt=state.attempt,
            stolen=stolen,
        )
        state.leases.append(lease.lease_id)
        self._leases[lease.lease_id] = lease
        self.leases_issued += 1
        if stolen:
            self.leases_stolen += 1
        return lease

    def _steal(self, node_id: str, now: float) -> Lease | None:  # repro-lint: holds-lock
        """Duplicate the longest-running in-flight shard for an idle node."""
        candidates = [
            state
            for state in self._states.values()
            if not state.done
            and state.leases
            and len(state.leases) < self.max_duplicates
            and all(
                self._leases[lid].node_id != node_id for lid in state.leases
            )
        ]
        if not candidates:
            return None
        oldest = min(
            candidates,
            key=lambda s: min(self._leases[lid].issued_at for lid in s.leases),
        )
        return self._issue(oldest, node_id, now, stolen=True)

    # -- completion ------------------------------------------------------

    def complete(self, lease_id: int, result: Any) -> bool:
        """Record a shard result; False when a duplicate lost the race."""
        with self._lock:
            lease = self._leases.pop(lease_id, None)
            if lease is None:
                self.duplicates_dropped += 1
                return False
            state = self._states[lease.shard.shard_id]
            self._drop_leases(state)
            if state.done:
                self.duplicates_dropped += 1
                return False
            state.done = True
            state.result = result
            return True

    def fail(self, lease_id: int, error: str, now: float) -> bool:
        """Record a shard failure; requeue with backoff or kill the job.

        Returns True while the shard will be retried; False once the
        attempt budget is spent (``failed_shard``/``failure`` are set).
        """
        with self._lock:
            lease = self._leases.pop(lease_id, None)
            if lease is None:
                return True  # a duplicate already succeeded or failed it
            state = self._states[lease.shard.shard_id]
            if state.done:
                return True
            self._drop_leases(state)
            if state.attempt >= self.max_attempts:
                self.failed_shard = state.shard.shard_id
                self.failure = error
                return False
            self.retries += 1
            backoff = min(
                self.backoff_cap, self.backoff_base * (2 ** (state.attempt - 1))
            )
            # Full jitter: anywhere in (0.5, 1.0] of the computed delay.
            state.not_before = now + backoff * (0.5 + 0.5 * self._rng.random())
            self._pending.append(state.shard.shard_id)
            return True

    def _drop_leases(self, state: _ShardState) -> None:  # repro-lint: holds-lock
        for lid in state.leases:
            self._leases.pop(lid, None)
        state.leases.clear()

    # -- failover --------------------------------------------------------

    def expire(self, now: float) -> list[Lease]:
        """Return leases past their deadline to the pending queue."""
        expired: list[Lease] = []
        with self._lock:
            for lease in list(self._leases.values()):
                if lease.deadline <= now:
                    expired.append(lease)
                    self._release_locked(lease)
                    self.leases_expired += 1
        return expired

    def release_node(self, node_id: str) -> list[Lease]:
        """Release every lease held by a (dead) node for reassignment."""
        released: list[Lease] = []
        with self._lock:
            for lease in list(self._leases.values()):
                if lease.node_id == node_id:
                    released.append(lease)
                    self._release_locked(lease)
                    self.leases_released += 1
        return released

    def _release_locked(self, lease: Lease) -> None:  # repro-lint: holds-lock
        self._leases.pop(lease.lease_id, None)
        state = self._states[lease.shard.shard_id]
        if lease.lease_id in state.leases:
            state.leases.remove(lease.lease_id)
        if not state.done and not state.leases:
            # Attempt count stands (a lost lease still spent an attempt);
            # no backoff — the node died, the shard did nothing wrong.
            if state.shard.shard_id not in self._pending:
                self._pending.append(state.shard.shard_id)

    # -- introspection ---------------------------------------------------

    @property
    def done(self) -> bool:
        with self._lock:
            return all(state.done for state in self._states.values())

    @property
    def failed(self) -> bool:
        with self._lock:
            return self.failed_shard is not None

    def results(self) -> dict[int, Any]:
        with self._lock:
            return {
                shard_id: state.result
                for shard_id, state in self._states.items()
                if state.done
            }

    def backoff_until(self, now: float) -> float:
        """When the earliest pending shard still backing off at ``now``
        becomes leasable again (``inf`` when none is backing off)."""
        with self._lock:
            pending = [self._states[shard_id] for shard_id in self._pending]
            return min(
                (s.not_before for s in pending if not s.done and s.not_before > now),
                default=math.inf,
            )

    def in_flight(self) -> int:
        with self._lock:
            return len(self._leases)

    def pending(self) -> int:
        with self._lock:
            return sum(1 for s in self._states.values() if not s.done and not s.leases)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "shards": len(self._states),
                "done": sum(1 for s in self._states.values() if s.done),
                "in_flight": len(self._leases),
                "leases_issued": self.leases_issued,
                "leases_expired": self.leases_expired,
                "leases_stolen": self.leases_stolen,
                "leases_released": self.leases_released,
                "retries": self.retries,
                "duplicates_dropped": self.duplicates_dropped,
            }
