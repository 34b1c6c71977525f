"""The admission layer: every job enters the service through here.

:class:`Gateway` owns the contract the HTTP server and the executors
individually lack — *who* may submit (tenant resolution), *how much*
(quotas), *in what order* (weighted fair share) and *exactly once*
(idempotency keys):

1. resolve the API key to a :class:`~repro.gateway.tenants.TenantSpec`
   (constant-time; open mode resolves everything to ``public``);
2. replay a committed idempotency key, or win/await the in-flight one;
3. charge the tenant's token bucket, in-flight and spool-byte budgets
   (:class:`~repro.gateway.quota.QuotaExceeded` → 429 + Retry-After);
4. serve cache-born-done jobs straight from the result cache;
5. stamp the job with a fair-share **tag** and submit it to the spool
   queue.

**Fair share is a sort key.**  The spool hands out the smallest key
first, and the key is ``(priority, tag, arrival)``; the tag is a
start-time fair-queueing stamp.  Each priority level has a virtual
clock ``v`` — the smallest tag still waiting at that level, or the
largest ever issued there once nothing waits — and each tenant a
finish tag per level::

    start = max(v, finish[tenant])
    finish[tenant] = start + TICK / weight

so a tenant's own jobs stay FIFO ``TICK / weight`` apart, a tenant that
was idle starts at ``v`` (no banked credit) and a light tenant's job
lands beside the *head* of a heavy tenant's backlog, not behind its
tail — it overtakes hundreds of queued heavy jobs without preemption
and without a second queue.  ``v`` never falls and no tag is issued
below it, so between a job becoming its tenant's oldest and its claim
only tags within ``TICK / weight`` of ``v`` are claimed: at most
``weight_u / weight + 1`` jobs of any tenant ``u``, hence with weights
≥ 1 **at most** ``sum(weights) + n_tenants`` **claims**, for any
number of workers and any job durations (the hypothesis property in
``tests/gateway/test_fairshare.py``).  ``v`` is read from ``queue/``
alone: a clock taken from ``claimed/`` steps back whenever the newest
claim finishes before an older one and lets a burst in under the
backlog.  Nothing but the markers is state: :meth:`Gateway.recover`
reads finish tags back from them.

The gateway deliberately takes its stores (job store, spool queue,
result cache) as constructor arguments and defers every
``repro.service`` import into the call paths: ``service.server``
imports this module at module scope, and the one-way import rule
(``serve()``'s cluster pattern) is what keeps the package graph
acyclic.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass
from typing import Any

from ..obs import MetricsRegistry, instrument, render_prometheus
from .idempotency import IdempotencyStore
from .quota import QuotaExceeded, TokenBucket
from .tenants import AuthError, ForbiddenError, TenantDirectory, TenantSpec

__all__ = ["Admission", "Gateway"]

#: Tag distance between two jobs of a weight-1 tenant; weights resolve
#: to a millionth, and a 20-digit key field holds ~10¹⁴ such jobs.
TICK = 1_000_000


@dataclass
class Admission:
    """What one admitted ``POST /jobs`` produced."""

    record: Any  # JobRecord (duck-typed; see module docstring)
    from_cache: bool
    replayed: bool
    tenant: TenantSpec


class Gateway:
    """Tenant admission + fair-share dispatch over injected stores."""

    def __init__(
        self,
        store,
        queue,
        cache,
        *,
        directory: TenantDirectory | None = None,
    ) -> None:
        self.store = store
        self.queue = queue
        self.cache = cache
        self.directory = directory or TenantDirectory()
        self.idempotency = IdempotencyStore(store.root / "gateway" / "idempotency")
        self._lock = threading.Lock()
        #: tenant name -> {job_id: payload bytes} for every non-terminal
        #: admitted job (spooled or running).
        self._active: dict[str, dict[str, int]] = {}
        #: (tenant name, priority) -> the tag its next job may not precede.
        self._finish: dict[tuple[str, int], int] = {}
        #: priority -> largest tag issued: the clock of an empty level.
        self._issued: dict[int, int] = {}
        self._buckets: dict[str, tuple[tuple[float, float], TokenBucket]] = {}
        #: Tenants that ever admitted work — keeps their gauges
        #: published (at zero) after their backlog drains.
        self._tenants_seen: set[str] = set()
        # Private always-on registry, the coordinator's discipline: a
        # gateway whose tenants are invisible is not operable.
        self.metrics = MetricsRegistry()
        self._metric("repro_gateway_admissions_total", tenant="public", route="spool")
        self._metric("repro_gateway_rejections_total", tenant="public", reason="rate")

    # -- deferred service imports (see module docstring) -------------------

    @staticmethod
    def _protocol():
        from ..service.protocol import JobSpec, JobState, job_digest

        return JobSpec, JobState, job_digest

    # -- admission ---------------------------------------------------------

    def resolve(self, api_key: str | None) -> TenantSpec:
        """Tenant for ``api_key``, counting auth failures as rejections."""
        try:
            return self.directory.resolve(api_key)
        except AuthError:
            self._reject("-", "auth")
            raise
        except ForbiddenError:
            self._reject("-", "forbidden")
            raise

    def submit(
        self,
        payload: dict,
        *,
        api_key: str | None = None,
        idempotency_key: str | None = None,
    ) -> Admission:
        """Admit one job; the docstring flow, top to bottom.

        Raises ``SpecError`` (400), :class:`AuthError` (401),
        :class:`ForbiddenError` (403), :class:`QuotaExceeded` /
        ``BacklogFull`` (429) or ``IdempotencyConflict`` (409).
        """
        JobSpec, _JobState, job_digest = self._protocol()
        tenant = self.resolve(api_key)
        spec = JobSpec.from_dict(payload)
        digest = job_digest(spec)

        ticket = None
        if idempotency_key:
            outcome = self.idempotency.claim(tenant.name, idempotency_key)
            if isinstance(outcome, dict):
                replay = self._replay(tenant, outcome)
                if replay is not None:
                    return replay
                # The mapped record vanished (admission rollback or
                # manual cleanup): re-admit and rebind the key below.
            else:
                ticket = outcome
        try:
            admission = self._admit(tenant, payload, spec, digest)
        except BaseException:
            if ticket is not None:
                ticket.abort()
            raise
        if ticket is not None:
            ticket.commit(admission.record.id, digest)
        elif idempotency_key:
            self.idempotency.bind(
                tenant.name, idempotency_key, admission.record.id, digest
            )
        return admission

    def _replay(self, tenant: TenantSpec, mapping: dict) -> Admission | None:
        record = self.store.get(str(mapping.get("job_id", "")))
        if record is None:
            return None
        self._admit_count(tenant.name, "replay")
        return Admission(record, record.served_from_cache, True, tenant)

    def _admit(self, tenant: TenantSpec, payload: dict, spec, digest: str) -> Admission:
        from ..service.queue import BacklogFull  # deferred: module docstring

        wait = self._bucket(tenant).take()
        if wait > 0:
            self._reject(tenant.name, "rate")
            raise QuotaExceeded(
                tenant.name,
                "rate",
                f"tenant {tenant.name!r} over its request rate "
                f"({tenant.rate:g}/s); retry in {math.ceil(wait)}s",
                retry_after=math.ceil(wait),
            )

        cached = self.cache.get(digest)
        if cached is not None:
            # Born done: the content-addressed cache already holds the
            # answer, so the job never occupies quota or a spool slot.
            record = self._born_done(tenant, spec, digest, cached)
            self._admit_count(tenant.name, "cache")
            return Admission(record, True, False, tenant)

        cost = len(json.dumps(payload, sort_keys=True).encode("utf-8"))
        with self._lock:
            self._reap_locked()
            active = self._active.setdefault(tenant.name, {})
            self._check_quotas(tenant, active, cost)
            record = self.store.new_job(
                spec.to_dict(), digest, spec.priority, tenant=tenant.name
            )
            # The event precedes the marker: a worker may claim at once.
            self.store.append_event(
                record.id, "queued", digest=digest, priority=spec.priority,
                tenant=tenant.name,
            )
            try:
                self._spool(record)
            except BacklogFull:
                # Shed before any worker could see it: no trace stays.
                self.store.delete(record.id)
                self._reject(tenant.name, "backlog")
                raise
            self.store.grant_result_access(digest, tenant.name)
            active[record.id] = cost
        self._admit_count(tenant.name, "spool")
        return Admission(record, False, False, tenant)

    def _spool(self, record) -> None:
        """Stamp ``record`` with its fair-share tag and spool it (locked)."""
        priority = self.queue.clamp(record.priority)
        flow = (record.tenant or "public", priority)
        waiting = self.queue.head_tag(priority)
        clock = self._issued.get(priority, 0) if waiting is None else waiting
        tag = max(clock, self._finish.get(flow, 0))
        self.queue.submit(record.id, priority, tag)
        self._issue(flow, tag)

    def _issue(self, flow: tuple[str, int], tag: int) -> None:
        """Account a spooled tag: its flow's finish tag, its level's clock."""
        tenant = self.directory.get(flow[0])
        step = max(1, round(TICK / (tenant.weight if tenant else 1.0)))
        self._finish[flow] = max(self._finish.get(flow, 0), tag + step)
        self._issued[flow[1]] = max(self._issued.get(flow[1], 0), tag)

    def _born_done(self, tenant: TenantSpec, spec, digest: str, cached: dict):
        _JobSpec, JobState, _job_digest = self._protocol()
        record = self.store.new_job(
            spec.to_dict(), digest, spec.priority, tenant=tenant.name
        )
        record.state = JobState.DONE
        record.served_from_cache = True
        record.finished = time.time()
        record.found = len(cached.get("top_alignments", ()))
        self.store.put(record)
        self.store.grant_result_access(digest, tenant.name)
        self.store.append_event(record.id, "cache-hit", digest=digest)
        return record

    def _check_quotas(self, tenant: TenantSpec, active: dict, cost: int) -> None:
        if tenant.max_in_flight and len(active) >= tenant.max_in_flight:
            self._reject(tenant.name, "in_flight")
            raise QuotaExceeded(
                tenant.name,
                "in_flight",
                f"tenant {tenant.name!r} at max in-flight jobs "
                f"({len(active)}/{tenant.max_in_flight})",
                retry_after=self.queue.retry_after_hint(len(active)),
            )
        if tenant.spool_bytes:
            used = sum(active.values())
            if used + cost > tenant.spool_bytes:
                self._reject(tenant.name, "spool_bytes")
                raise QuotaExceeded(
                    tenant.name,
                    "spool_bytes",
                    f"tenant {tenant.name!r} over its spool budget "
                    f"({used + cost}/{tenant.spool_bytes} bytes)",
                    retry_after=self.queue.retry_after_hint(len(active)),
                )

    def _bucket(self, tenant: TenantSpec) -> TokenBucket:
        with self._lock:
            shape = (tenant.rate, tenant.burst)
            entry = self._buckets.get(tenant.name)
            if entry is None or entry[0] != shape:
                # New tenant, or a hot-reload changed its rate/burst.
                entry = (shape, TokenBucket(tenant.rate, tenant.burst))
                self._buckets[tenant.name] = entry
            return entry[1]

    # -- quota ledgers / restart -------------------------------------------

    def _reap_locked(self) -> None:  # repro-lint: holds-lock
        """Release quota held by jobs that reached a terminal state."""
        for tenant_name in list(self._active):
            jobs = self._active[tenant_name]
            for job_id in list(jobs):
                record = self.store.get(job_id)
                if record is None or record.terminal:
                    del jobs[job_id]
            if not jobs:
                del self._active[tenant_name]

    def recover(self) -> int:
        """Rebuild quota ledgers and finish tags from the durable state.

        Every non-terminal record re-occupies quota, and a spool marker
        hands its tag back to its tenant's finish tag.  A record
        without a marker is spooled again, oldest first.  Either a
        crash fell between ``new_job`` and ``submit``, or the record is
        ``running`` with nothing left to finish it: ``workers.recover``
        has already requeued every claimed marker, so it was run
        outside the spool by an older server, and it goes back to
        ``queued`` first.  Returns how many were spooled again.
        """
        _JobSpec, JobState, _job_digest = self._protocol()
        lost = []
        with self._lock:
            tags = self.queue.tags()
            for job_id in self.store.list_ids():
                record = self.store.get(job_id)
                if record is None or record.terminal:
                    continue
                tenant_name = record.tenant or "public"
                self._active.setdefault(tenant_name, {})[job_id] = len(
                    json.dumps(record.spec, sort_keys=True).encode("utf-8")
                )
                if job_id in tags:
                    priority, tag = tags[job_id]
                    self._issue((tenant_name, priority), tag)
                else:
                    lost.append(record)
        for record in sorted(lost, key=lambda record: record.created):
            self.respool(record, "server restarted")
        return len(lost)

    def respool(self, record, reason: str) -> None:
        """Spool ``record``'s job again: a record that is not ``queued``
        goes back to it first, with a ``requeued`` event naming
        ``reason``.  May raise ``BacklogFull``; the record then waits
        for :meth:`recover`, which spools every record without a marker.
        """
        _JobSpec, JobState, _job_digest = self._protocol()
        if record.state != JobState.QUEUED:
            self.store.update(record.id, state=JobState.QUEUED, worker="")
            self.store.append_event(record.id, "requeued", reason=reason)
        with self._lock:
            self._spool(record)

    # -- bookkeeping / introspection ---------------------------------------

    def _metric(self, name: str, **labels: str):
        return instrument(self.metrics, name, **labels)

    def _admit_count(self, tenant_name: str, route: str) -> None:
        self._tenants_seen.add(tenant_name)
        self._metric(
            "repro_gateway_admissions_total", tenant=tenant_name, route=route
        ).inc()

    def _reject(self, tenant_name: str, reason: str) -> None:
        self._metric(
            "repro_gateway_rejections_total", tenant=tenant_name, reason=reason
        ).inc()

    def snapshot(self) -> dict:
        """Gateway state for ``/stats`` (no API keys, ever)."""
        with self._lock:
            self._reap_locked()
            active = {
                name: {"jobs": len(jobs), "spool_bytes": sum(jobs.values())}
                for name, jobs in sorted(self._active.items())
            }
        return {
            "mode": "open" if self.directory.open else "tenants",
            "active": active,
            "tenants": self.directory.snapshot(),
            "idempotency_keys": self.idempotency.entries(),
            "config_reloads": self.directory.reloads,
            "config_reload_errors": self.directory.reload_errors,
        }

    def render_metrics(self) -> str:
        """The ``repro_gateway_*`` exposition block for ``/metrics``."""
        with self._lock:
            self._reap_locked()
            ledgers = {
                name: (len(jobs), sum(jobs.values()))
                for name, jobs in self._active.items()
            }
        for tenant_name in self._tenants_seen - set(ledgers):
            ledgers[tenant_name] = (0, 0)
        for tenant_name, (jobs, spool_bytes) in sorted(ledgers.items()):
            self._metric("repro_gateway_active_jobs", tenant=tenant_name).set(jobs)
            self._metric("repro_gateway_spool_bytes", tenant=tenant_name).set(
                spool_bytes
            )
        self._metric("repro_gateway_config_reloads").set(self.directory.reloads)
        return render_prometheus(self.metrics)
