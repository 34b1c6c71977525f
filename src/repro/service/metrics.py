"""Prometheus exporter for the service (``GET /metrics``).

The worker pool runs **spawned processes**, so the server's in-process
registry never sees worker-side counters.  The durable stores do: the
job store carries per-worker counter files and every job record's
lifecycle timestamps, the spool queue its depth, the result cache its
hit/miss tallies.  Each scrape therefore builds a *fresh* short-lived
:class:`~repro.obs.registry.MetricsRegistry` from those stores — the
same read-through discipline ``RunStats`` uses, applied at process
granularity — and appends the server process's own registry (HTTP
request counters) on the way out.  Store-derived families use the
``repro_service_*`` / ``repro_worker_*`` prefixes and the process
registry uses ``repro_http_*``, so the two renderings never collide.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

from ..obs import MetricsRegistry, get_registry, instrument, render_prometheus
from ..obs.families import WORKER_COUNTERS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .server import ReproService

__all__ = ["build_service_registry", "render_service_metrics"]


def build_service_registry(
    service: "ReproService", *, workers_alive: int | None = None
) -> MetricsRegistry:
    """A scrape-time registry filled from the service's durable stores."""
    registry = MetricsRegistry()

    def family(name: str, **labels):
        return instrument(registry, name, **labels)

    family("repro_service_uptime_seconds").set(time.time() - service.started)

    # -- queue -----------------------------------------------------------
    family("repro_service_queue_depth").set(service.queue.depth())
    family("repro_service_queue_in_flight").set(service.queue.in_flight())
    family("repro_service_queue_capacity").set(service.queue.capacity)

    # -- result cache ----------------------------------------------------
    cache_stats = service.cache.stats()
    family("repro_service_cache_hits_total", tier="memory").inc(
        cache_stats["hits_memory"]
    )
    family("repro_service_cache_hits_total", tier="disk").inc(cache_stats["hits_disk"])
    family("repro_service_cache_misses_total").inc(cache_stats["misses"])
    family("repro_service_cache_stores_total").inc(cache_stats["stores"])
    family("repro_service_cache_memory_entries").set(cache_stats["memory_entries"])
    family("repro_service_cache_disk_entries").set(service.cache.entries())

    # -- jobs ------------------------------------------------------------
    for state, count in sorted(service.store.states().items()):
        family("repro_service_jobs", state=state).set(count)
    latency = family("repro_service_job_seconds")
    attempts = family("repro_service_job_attempts_total")
    retries = family("repro_service_job_retries_total")
    tenant_states: dict[tuple[str, str], int] = {}
    for job_id in service.store.list_ids():
        record = service.store.get(job_id)
        if record is None:
            continue
        attempts.inc(record.attempts)
        retries.inc(max(0, record.attempts - 1))
        key = (record.tenant or "public", record.state)
        tenant_states[key] = tenant_states.get(key, 0) + 1
        if record.terminal and not record.served_from_cache and record.finished > 0:
            latency.observe(max(0.0, record.finished - record.created))
    for (tenant, state), count in sorted(tenant_states.items()):
        family("repro_service_tenant_jobs", tenant=tenant, state=state).set(count)

    # -- workers ---------------------------------------------------------
    if workers_alive is not None:
        family("repro_service_workers_alive").set(workers_alive)
    for tag, stats in sorted(service.store.worker_stats().items()):
        for key in WORKER_COUNTERS:
            family(f"repro_worker_{key}_total", worker=tag).inc(stats.get(key, 0))

    return registry


def render_service_metrics(
    service: "ReproService", *, workers_alive: int | None = None
) -> str:
    """Full ``/metrics`` body: store-derived families + the process registry.

    With a cluster coordinator attached, its ``repro_cluster_*``
    families (node gauges, lease counters, shard latency) are appended
    from the coordinator's private always-on registry; the gateway's
    ``repro_gateway_*`` families (per-tenant admissions, rejections,
    quota ledgers) likewise — distinct prefixes, so none of the
    renderings collide.
    """
    text = render_prometheus(
        build_service_registry(service, workers_alive=workers_alive)
    )
    process = get_registry()
    if process.collecting:
        text += render_prometheus(process)
    coordinator = getattr(service, "coordinator", None)
    if coordinator is not None:
        text += coordinator.render_metrics()
    gateway = getattr(service, "gateway", None)
    if gateway is not None:
        text += gateway.render_metrics()
    return text
