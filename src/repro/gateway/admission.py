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
5. route to the cluster when worker nodes are alive, otherwise place
   the job in the tenant's **lane** and let deficit-round-robin decide
   release order.

**Lazy dispatch is what makes fair share real.**  The spool queue
serializes jobs the moment they are submitted, so draining lanes
eagerly would freeze arrival order — FIFO with extra steps.  Instead
the gateway keeps at most ``dispatch_window`` jobs in the spool
(enough to keep every worker busy plus a small runway) and *pumps* one
DRR grant at a time as slots free up.  A heavy tenant's backlog waits
in its lane, where the scheduler — not arrival time — decides what
runs next, so a light tenant's job overtakes hundreds of queued heavy
jobs without preemption.

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
from typing import Any, Callable

from ..obs import MetricsRegistry
from ..obs.prometheus import render_prometheus
from .fairshare import DeficitRoundRobin, LaneItem
from .idempotency import IdempotencyStore
from .quota import QuotaExceeded, TokenBucket
from .tenants import AuthError, ForbiddenError, TenantDirectory, TenantSpec

__all__ = ["Admission", "Gateway"]


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
        dispatch_window: int = 0,
        workers: int = 0,
    ) -> None:
        self.store = store
        self.queue = queue
        self.cache = cache
        self.directory = directory or TenantDirectory()
        #: Spool occupancy target.  Auto (0) keeps every worker busy
        #: with one queued job of runway each, floored at 4 so the
        #: workerless test configuration still drains.
        self.window = int(dispatch_window) or max(4, 2 * int(workers))
        self.idempotency = IdempotencyStore(store.root / "gateway" / "idempotency")
        self.drr = DeficitRoundRobin()
        self._lock = threading.Lock()
        #: tenant name -> {job_id: payload bytes} for every non-terminal
        #: admitted job (lane, spool, running, or cluster-routed).
        self._active: dict[str, dict[str, int]] = {}
        self._buckets: dict[str, tuple[tuple[float, float], TokenBucket]] = {}
        #: Cluster hooks installed by the service: ``cluster_route()``
        #: says whether live nodes exist, ``cluster_spawn(job_id, spec)``
        #: starts the routed job.  Both optional.
        self.cluster_route: Callable[[], bool] | None = None
        self.cluster_spawn: Callable[[str, Any], None] | None = None
        self._pump_thread: threading.Thread | None = None
        self._pump_stop = threading.Event()
        #: Tenants that ever admitted work — keeps their gauges
        #: published (at zero) after their backlog drains.
        self._tenants_seen: set[str] = set()
        # Private always-on registry, the coordinator's discipline: a
        # gateway whose tenants are invisible is not operable.
        self.metrics = MetricsRegistry()
        self._c_admissions = self.metrics.counter(
            "repro_gateway_admissions_total",
            help="Jobs admitted, by tenant and route",
            tenant="public",
            route="spool",
        )
        self.metrics.counter(
            "repro_gateway_rejections_total",
            help="Submissions refused at admission, by tenant and reason",
            tenant="public",
            reason="rate",
        )
        self.metrics.counter(
            "repro_gateway_grants_total",
            help="Lane items released into the spool queue, by tenant",
            tenant="public",
        )

    # -- deferred service imports (see module docstring) -------------------

    @staticmethod
    def _protocol():
        from ..service.protocol import JobSpec, JobState, job_digest

        return JobSpec, JobState, job_digest

    @staticmethod
    def _backlog_full():
        from ..service.queue import BacklogFull

        return BacklogFull

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

        if self.cache.get(digest) is not None:
            # Born done: the content-addressed cache already holds the
            # answer, so the job never occupies quota or a lane slot.
            record = self._born_done(tenant, spec, digest)
            self._admit_count(tenant.name, "cache")
            return Admission(record, True, False, tenant)

        cost = len(json.dumps(payload, sort_keys=True).encode("utf-8"))
        with self._lock:
            self._reap_locked()
            active = self._active.setdefault(tenant.name, {})
            self._check_quotas(tenant, active, cost)
            to_cluster = self.cluster_route is not None and self.cluster_route()
            if not to_cluster:
                self._check_backlog(tenant)
            record = self.store.new_job(
                spec.to_dict(), digest, spec.priority, tenant=tenant.name
            )
            self.store.grant_result_access(digest, tenant.name)
            active[record.id] = cost
            if to_cluster:
                self.store.append_event(
                    record.id, "queued", digest=digest, priority=spec.priority,
                    route="cluster", tenant=tenant.name,
                )
            else:
                self.drr.set_weight(tenant.name, tenant.weight)
                self.drr.enqueue(
                    tenant.name, LaneItem(record.id, priority=spec.priority)
                )
                self.store.append_event(
                    record.id, "queued", digest=digest, priority=spec.priority,
                    tenant=tenant.name,
                )
        if to_cluster:
            self.cluster_spawn(record.id, spec)
            self._admit_count(tenant.name, "cluster")
        else:
            self.pump()
            self._admit_count(tenant.name, "spool")
        return Admission(record, False, False, tenant)

    def _born_done(self, tenant: TenantSpec, spec, digest: str):
        _JobSpec, JobState, _job_digest = self._protocol()
        record = self.store.new_job(
            spec.to_dict(), digest, spec.priority, tenant=tenant.name
        )
        record.state = JobState.DONE
        record.served_from_cache = True
        record.finished = time.time()
        record.found = spec.top_alignments
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

    def _check_backlog(self, tenant: TenantSpec) -> None:
        """The service-wide load valve: lanes + spool count as backlog."""
        if not self.queue.capacity:
            return
        total = sum(len(jobs) for jobs in self._active.values())
        if total >= self.queue.capacity:
            self._reject(tenant.name, "backlog")
            BacklogFull = self._backlog_full()
            raise BacklogFull(
                total, self.queue.capacity, self.queue.retry_after_hint(total)
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

    # -- dispatch ----------------------------------------------------------

    def pump(self) -> int:
        """Grant lane items into the spool while it has window room."""
        BacklogFull = self._backlog_full()
        moved = 0
        with self._lock:
            window = self.window
            if self.queue.capacity:
                window = min(window, self.queue.capacity)
            while self.queue.depth() + self.queue.in_flight() < max(1, window):
                granted = self.drr.grant()
                if granted is None:
                    break
                tenant_name, item = granted
                try:
                    self.queue.submit(item.job_id, item.priority)
                except BacklogFull:
                    self.drr.requeue_front(tenant_name, item)
                    break
                self.metrics.counter(
                    "repro_gateway_grants_total", tenant=tenant_name
                ).inc()
                moved += 1
        return moved

    def reap(self) -> int:
        """Release quota held by jobs that reached a terminal state."""
        with self._lock:
            return self._reap_locked()

    def _reap_locked(self) -> int:  # repro-lint: holds-lock
        reaped = 0
        for tenant_name in list(self._active):
            jobs = self._active[tenant_name]
            for job_id in list(jobs):
                record = self.store.get(job_id)
                if record is None or record.terminal:
                    del jobs[job_id]
                    reaped += 1
            if not jobs:
                del self._active[tenant_name]
        return reaped

    def discard(self, tenant_name: str, job_id: str) -> bool:
        """Drop a lane-queued job (cancellation before it reached the spool)."""
        return self.drr.remove(tenant_name or "public", job_id)

    def recover(self) -> int:
        """Rebuild lanes and quota ledgers from the job store (restart).

        Queued records without a spool marker were waiting in a lane
        when the previous server died; they re-enter their tenant's
        lane.  So does a running record without one: a cluster-routed
        job is driven by a thread of the server that died with it
        (``workers.recover`` has already requeued every claimed spool
        marker), so nothing would ever finish it.  Every other
        non-terminal record just re-occupies quota.
        """
        _JobSpec, JobState, _job_digest = self._protocol()
        restored = 0
        stranded: list[str] = []
        with self._lock:
            for job_id in self.store.list_ids():
                record = self.store.get(job_id)
                if record is None or record.terminal:
                    continue
                tenant_name = record.tenant or "public"
                active = self._active.setdefault(tenant_name, {})
                if job_id in active:
                    continue
                active[job_id] = len(
                    json.dumps(record.spec, sort_keys=True).encode("utf-8")
                )
                if not self.queue.contains(job_id):
                    if record.state == JobState.RUNNING:
                        stranded.append(job_id)
                    tenant = self.directory.get(tenant_name)
                    if tenant is not None:
                        self.drr.set_weight(tenant_name, tenant.weight)
                    self.drr.enqueue(
                        tenant_name, LaneItem(job_id, priority=record.priority)
                    )
                    restored += 1
        # Before the pump below: a lane item only reaches a worker
        # through it, and the worker must claim a queued record.
        for job_id in stranded:
            self.store.update(job_id, state=JobState.QUEUED, worker="")
            self.store.append_event(job_id, "requeued", reason="server restarted")
        self.pump()
        return restored

    # -- pump thread -------------------------------------------------------

    def start_pump(self, interval: float = 0.05) -> None:
        """Run reap+pump on a timer (the server process owns exactly one)."""
        if self._pump_thread is not None:
            return
        self._pump_stop.clear()

        def _loop() -> None:
            while not self._pump_stop.wait(interval):
                self.reap()
                self.pump()

        self._pump_thread = threading.Thread(
            target=_loop, name="gateway-pump", daemon=True
        )
        self._pump_thread.start()

    def stop_pump(self, timeout: float = 5.0) -> None:
        if self._pump_thread is None:
            return
        self._pump_stop.set()
        self._pump_thread.join(timeout=timeout)
        self._pump_thread = None

    # -- bookkeeping / introspection ---------------------------------------

    def _admit_count(self, tenant_name: str, route: str) -> None:
        self._tenants_seen.add(tenant_name)
        self.metrics.counter(
            "repro_gateway_admissions_total", tenant=tenant_name, route=route
        ).inc()

    def _reject(self, tenant_name: str, reason: str) -> None:
        self.metrics.counter(
            "repro_gateway_rejections_total", tenant=tenant_name, reason=reason
        ).inc()

    def snapshot(self) -> dict:
        """Gateway state for ``/stats`` (no API keys, ever)."""
        with self._lock:
            active = {
                name: {"jobs": len(jobs), "spool_bytes": sum(jobs.values())}
                for name, jobs in sorted(self._active.items())
            }
        return {
            "mode": "open" if self.directory.open else "tenants",
            "dispatch_window": self.window,
            "lanes": self.drr.snapshot(),
            "active": active,
            "tenants": self.directory.snapshot(),
            "idempotency_keys": self.idempotency.entries(),
            "config_reloads": self.directory.reloads,
            "config_reload_errors": self.directory.reload_errors,
        }

    def render_metrics(self) -> str:
        """The ``repro_gateway_*`` exposition block for ``/metrics``."""
        for tenant_name, lane in self.drr.snapshot().items():
            self.metrics.gauge(
                "repro_gateway_lane_depth",
                help="Jobs waiting in each tenant's fair-share lane",
                tenant=tenant_name,
            ).set(lane["depth"])
        with self._lock:
            ledgers = {
                name: (len(jobs), sum(jobs.values()))
                for name, jobs in self._active.items()
            }
        for tenant_name in self._tenants_seen - set(ledgers):
            ledgers[tenant_name] = (0, 0)
        for tenant_name, (jobs, spool_bytes) in sorted(ledgers.items()):
            self.metrics.gauge(
                "repro_gateway_active_jobs",
                help="Admitted, non-terminal jobs per tenant",
                tenant=tenant_name,
            ).set(jobs)
            self.metrics.gauge(
                "repro_gateway_spool_bytes",
                help="Serialized payload bytes held by each tenant's active jobs",
                tenant=tenant_name,
            ).set(spool_bytes)
        self.metrics.gauge(
            "repro_gateway_config_reloads",
            help="Successful tenant-config hot reloads (SIGHUP)",
        ).set(self.directory.reloads)
        return render_prometheus(self.metrics)
