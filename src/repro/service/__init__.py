"""``repro.service`` — the repeat finder as a long-running server.

The library runs one scan to completion in-process; the service wraps
the same engines behind a durable job queue so repeat detection can be
scheduled, cached and resumed under concurrent load:

* :mod:`~repro.service.protocol` — job specs, content digests and the
  JSON wire forms shared by server, workers and clients;
* :mod:`~repro.service.cache` — content-addressed result cache
  (on-disk store + in-memory LRU);
* :mod:`~repro.service.jobstore` — durable job records, progress
  event logs and checkpoint files;
* :mod:`~repro.service.queue` — bounded, priority, disk-backed job
  queue with backpressure and atomic multi-process claims;
* :mod:`~repro.service.workers` — the multi-process worker pool and
  the resumable job executor;
* :mod:`~repro.service.server` — the stdlib HTTP JSON API
  (``repro serve``);
* :mod:`~repro.service.client` — the matching urllib client
  (``repro submit/status/fetch``).
"""

from .protocol import (
    ALGORITHM_VERSION,
    JobSpec,
    JobState,
    SpecError,
    job_digest,
    result_to_dict,
)

#: Name -> submodule, imported on first access: a process that only
#: needs the wire protocol (``repro find``, a spawned worker, a cluster
#: node) never imports the HTTP server, the client or the gateway.
_LAZY = {
    name: module
    for module, names in {
        "cache": ("ResultCache",),
        "client": ("ClientBacklogFull", "ServiceAuthError", "ServiceClient", "ServiceError"),
        "jobstore": ("JobRecord", "JobStore"),
        "queue": ("BacklogFull", "SpoolQueue"),
        "server": ("ReproService", "ServiceConfig"),
        "workers": ("WorkerPool", "execute_job"),
    }.items()
    for name in names
}


def __getattr__(name):
    from importlib import import_module

    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_LAZY[name]}", __name__)
    value = globals()[name] = getattr(module, name)  # resolve once
    return value


__all__ = [
    "ALGORITHM_VERSION",
    "BacklogFull",
    "ClientBacklogFull",
    "JobRecord",
    "JobSpec",
    "JobState",
    "JobStore",
    "ReproService",
    "ResultCache",
    "ServiceAuthError",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "SpecError",
    "SpoolQueue",
    "WorkerPool",
    "execute_job",
    "job_digest",
    "result_to_dict",
]
