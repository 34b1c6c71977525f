"""``repro.obs`` — observability: metrics registry, tracing, exporters.

One process-wide registry + tracer pair backs every instrumented path
(the best-first drivers, the lane engines, the service).  Collection is
**off by default** — see :mod:`repro.obs.state` for the
``REPRO_METRICS`` gating rules.

Typical use::

    from repro import obs

    obs.enable()
    counter = obs.get_registry().counter("repro_jobs_total")
    with obs.span("phase", detail="..."):
        counter.inc()
    text = obs.render_prometheus(obs.get_registry())
    trees = obs.get_tracer().export()

* :mod:`~repro.obs.registry` — counters, gauges, histograms, timers
  and the (no-op) registries that hold them;
* :mod:`~repro.obs.tracing` — nesting spans exported as JSON trees;
* :mod:`~repro.obs.prometheus` — text-exposition rendering;
* :mod:`~repro.obs.families` — the declared families of the service,
  index and annotation tiers, and :func:`record` onto them;
* :mod:`~repro.obs.state` — the process-wide pair + env gating.
"""

from .families import FAMILIES, Family, instrument, record
from .prometheus import CONTENT_TYPE, render_prometheus
from .registry import (
    LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Timer,
)
from .state import (
    METRICS_ENV,
    disable,
    enable,
    enabled,
    get_registry,
    get_tracer,
    reset,
    set_registry,
    span,
    write_snapshot,
)
from .tracing import Span, Tracer

__all__ = [
    "CONTENT_TYPE",
    "Counter",
    "FAMILIES",
    "Family",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "METRICS_ENV",
    "MetricsRegistry",
    "NullRegistry",
    "Span",
    "Timer",
    "Tracer",
    "disable",
    "enable",
    "enabled",
    "get_registry",
    "get_tracer",
    "instrument",
    "record",
    "render_prometheus",
    "reset",
    "set_registry",
    "span",
    "write_snapshot",
]
