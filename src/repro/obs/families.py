"""The declared metric families of the service, gateway, index and annotation tiers.

One table says what each family is — name, kind, help text, label
names, histogram buckets — so a call site says only *which* family and
*what value*: :func:`record` for the process-wide registry (one
``collecting`` check when metrics are off), :func:`instrument` for an
exporter filling a registry of its own at scrape time
(``service/metrics.py``).  Names, help strings, buckets and labels are
the scrape contract; ``tests/obs/test_metrics_golden.py`` pins the
rendered text.
"""

from __future__ import annotations

from typing import Any, NamedTuple

from .registry import LATENCY_BUCKETS, MetricsRegistry
from .state import get_registry

__all__ = ["FAMILIES", "Family", "WORKER_COUNTERS", "instrument", "record"]


class Family(NamedTuple):
    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    labels: tuple[str, ...] = ()
    buckets: tuple[float, ...] = ()


#: Build and render times (seconds): k-mer profiles are near-linear and
#: GFF3/JSON render in microseconds, so even long records and HTML with
#: MSA blocks land well under a second.
_SUBSECOND_BUCKETS = (0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0)

#: ``WorkerStats`` counters republished per worker tag as
#: ``repro_worker_<key>_total``, with their help text.
WORKER_COUNTERS = {
    "jobs_done": "Jobs this worker ran to completion",
    "jobs_failed": "Jobs this worker failed",
    "jobs_cancelled": "Jobs this worker observed cancelled mid-run",
    "jobs_suspended": "Jobs this worker drained to a checkpoint",
    "cache_hits": "Jobs this worker served from the result cache",
    "alignments": "Bottom-row alignments this worker computed",
    "cells": "Matrix cells this worker evaluated",
}

FAMILIES: dict[str, Family] = {
    family.name: family
    for family in (
        # -- service: filled from the durable stores at scrape time ------
        Family("repro_service_uptime_seconds", "gauge",
               "Seconds since the service started"),
        Family("repro_service_queue_depth", "gauge",
               "Jobs waiting in the spool queue"),
        Family("repro_service_queue_in_flight", "gauge",
               "Jobs claimed by workers right now"),
        Family("repro_service_queue_capacity", "gauge",
               "Backlog bound above which submissions shed load (0 = unbounded)"),
        Family("repro_service_cache_hits_total", "counter",
               "Result-cache hits by tier", ("tier",)),
        Family("repro_service_cache_misses_total", "counter",
               "Result-cache misses"),
        Family("repro_service_cache_stores_total", "counter",
               "Result payloads written to the cache"),
        Family("repro_service_cache_memory_entries", "gauge",
               "Payloads in the in-memory LRU front"),
        Family("repro_service_cache_disk_entries", "gauge",
               "Digests stored on disk"),
        Family("repro_service_jobs", "gauge",
               "Job records by lifecycle state", ("state",)),
        Family("repro_service_job_seconds", "histogram",
               "Submission-to-terminal latency of computed (non-cache-born) jobs",
               buckets=LATENCY_BUCKETS),
        Family("repro_service_job_attempts_total", "counter",
               "Worker claims across all jobs"),
        Family("repro_service_job_retries_total", "counter",
               "Re-claims beyond each job's first attempt (worker restarts/requeues)"),
        Family("repro_service_tenant_jobs", "gauge",
               "Job records by owning tenant and lifecycle state",
               ("tenant", "state")),
        Family("repro_service_workers_alive", "gauge",
               "Live worker processes in this pool"),
        *(
            Family(f"repro_worker_{key}_total", "counter", help_text, ("worker",))
            for key, help_text in WORKER_COUNTERS.items()
        ),
        # -- gateway: its own always-on registry -------------------------
        Family("repro_gateway_admissions_total", "counter",
               "Jobs admitted, by tenant and route", ("tenant", "route")),
        Family("repro_gateway_rejections_total", "counter",
               "Submissions refused at admission, by tenant and reason",
               ("tenant", "reason")),
        Family("repro_gateway_active_jobs", "gauge",
               "Admitted, non-terminal jobs per tenant", ("tenant",)),
        Family("repro_gateway_spool_bytes", "gauge",
               "Serialized payload bytes held by each tenant's active jobs",
               ("tenant",)),
        Family("repro_gateway_config_reloads", "gauge",
               "Successful tenant-config hot reloads (SIGHUP)"),
        # -- index tier --------------------------------------------------
        Family("repro_index_build_seconds", "histogram",
               "Wall time spent building one k-mer index profile",
               buckets=_SUBSECOND_BUCKETS),
        Family("repro_index_store_hits_total", "counter",
               "Index artifacts served from the content-addressed store"),
        Family("repro_index_store_misses_total", "counter",
               "Index-store lookups that required a fresh profile build"),
        Family("repro_index_routed_total", "counter",
               "Sequences routed by the index tier, by class", ("route",)),
        # -- annotation layer --------------------------------------------
        Family("repro_annot_reports_total", "counter",
               "Annotation reports rendered, by output format", ("format",)),
        Family("repro_annot_reports_denied_total", "counter",
               "Report requests refused for lack of tenant ownership"),
        Family("repro_annot_render_seconds", "histogram",
               "Wall time spent rendering one annotation artifact",
               ("format",), _SUBSECOND_BUCKETS),
    )
}

#: Family kind -> the instrument method that takes a recorded value.
_APPLY = {"counter": "inc", "gauge": "set", "histogram": "observe"}


def instrument(registry: MetricsRegistry, name: str, **labels: Any) -> Any:
    """``registry``'s instrument for family ``name`` with ``labels``."""
    family = FAMILIES[name]
    if labels.keys() != set(family.labels):
        raise TypeError(
            f"{name} takes labels {family.labels}, got {tuple(labels)}"
        )
    shape = {"buckets": family.buckets} if family.kind == "histogram" else {}
    return getattr(registry, family.kind)(name, help=family.help, **shape, **labels)


def record(name: str, value: float = 1, **labels: Any) -> None:
    """Count/set/observe ``value`` on the process-wide registry, if collecting."""
    registry = get_registry()
    if registry.collecting:
        target = instrument(registry, name, **labels)
        getattr(target, _APPLY[FAMILIES[name].kind])(value)
