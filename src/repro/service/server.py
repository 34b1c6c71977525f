"""The stdlib HTTP JSON API (``repro serve``).

Endpoints
---------
``POST /jobs``
    submit a :class:`~repro.service.protocol.JobSpec` JSON body.
    Returns ``202`` with the queued record, ``200`` when the result
    cache already holds the digest (the job is born ``done``), ``429``
    + ``Retry-After`` when the bounded queue sheds load, ``400`` on a
    malformed spec.
``GET /jobs/<id>``
    the job record (lifecycle state, attempts, ``found`` — written with
    each checkpoint, so up to ``workers.CHECKPOINT_SECONDS`` behind the
    exact ``progress`` events while the job runs).
    ``?wait=S`` parks the request until the job is terminal, ``S``
    seconds (at most :data:`~repro.service.protocol.MAX_WAIT_S`) pass
    or the server shuts down, then answers with the record; a server
    without a worker pool answers at once.
``GET /jobs/<id>/events``
    the job's progress stream as JSON lines.  ``?since=N`` skips the
    first N lines; ``?follow=1`` keeps the connection open, tailing new
    events until the job reaches a terminal state.
``POST /jobs/<id>/cancel``
    request cancellation (queued jobs die immediately; running jobs
    after the acceptance in flight).
``GET /results/<digest>``
    the content-addressed result payload.
``GET /jobs/<id>/report?format=gff3|json|html``
    the job's annotation artifact, rendered from the cached result
    (no re-alignment): GFF3 repeat track, repeat-profile JSON or the
    self-contained HTML report.  Tenant-scoped: the owning tenant (or
    a holder of the digest's ownership grant) gets ``200``, any other
    tenant ``403``.
``GET /stats``
    queue depth, job states, cache counters, per-worker counters.
``GET /healthz``
    liveness probe.

The server is a ``ThreadingHTTPServer`` over the same on-disk stores
the worker processes use, so it holds no job state worth losing.  What
it holds is a generation counter under one condition, bumped for every
event the server appends itself and every event a pool worker reports
(:mod:`repro.service.workers`, "The hand-off"): a parked ``?wait=`` or
a followed event stream wakes on it instead of polling the files.
SIGTERM/SIGINT shut it down gracefully: the pool drains running jobs to
checkpoints and requeues them, then the listener closes.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .. import obs
from ..gateway import (
    Admission,
    AuthError,
    ForbiddenError,
    Gateway,
    IdempotencyConflict,
    QuotaExceeded,
    TenantDirectory,
)
from .jobstore import JobRecord
from .metrics import render_service_metrics
from .protocol import MAX_WAIT_S, JobState, SpecError
from .queue import BacklogFull
from .workers import WorkerPool, open_stores, recover

__all__ = ["ServiceConfig", "ReproService", "serve"]

#: How long a followed event stream may stay open.
_FOLLOW_TIMEOUT = 3600.0


@dataclass
class ServiceConfig:
    """Knobs of one service instance."""

    data_dir: str = "repro-service-data"
    host: str = "127.0.0.1"
    port: int = 8765
    workers: int = 2
    queue_capacity: int = 64
    poll_interval: float = 0.05
    cache_memory_items: int = 64
    #: When set, ``serve`` also runs a cluster coordinator on this port
    #: (0 = ephemeral) for ``repro cluster scan``; jobs still go to the
    #: spool.  ``None`` disables clustering entirely.
    cluster_port: int | None = None
    #: Tenant config file (JSON; see repro.gateway.tenants).  ``None``
    #: runs the gateway open: every request is the unlimited ``public``
    #: tenant and no endpoint requires an API key.
    tenants_file: str | None = None


class _Changes:
    """Every job change this server hears of, as a generation counter.

    A waiter reads :attr:`generation`, then the store, then parks in
    :meth:`wait` until the counter moves: a change that lands between
    its read and its park has already moved it, so no wake-up is lost.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self.generation = 0
        self.closed = False

    def bump(self, _job_id: str) -> None:
        with self._cond:
            self.generation += 1
            self._cond.notify_all()

    def close(self) -> None:
        """Release every waiter now and any later one at once."""
        with self._cond:
            self.closed = True
            self._cond.notify_all()

    def wait(self, seen: int, timeout: float) -> bool:
        """Park until the generation moves past ``seen`` or ``timeout``
        passes; False once the server is shutting down."""
        with self._cond:
            self._cond.wait_for(
                lambda: self.generation != seen or self.closed, timeout
            )
            return not self.closed


class ReproService:
    """Server-side operations over the shared stores (HTTP-agnostic).

    The HTTP handler below is a thin JSON shim over these methods, so
    tests (and the smoke script) can also drive the service in-process.

    Every admitted job goes to the spool and is run by a local worker.
    A cluster coordinator, when attached, serves sharded scans to its
    worker nodes and shows up in ``/stats`` and ``/metrics``; it never
    runs a ``POST /jobs`` submission.
    """

    def __init__(self, config: ServiceConfig, coordinator=None) -> None:
        self.config = config
        # The service is the always-on consumer of repro.obs: turn the
        # process registry on so HTTP counters (and any in-process
        # alignment work) land on /metrics.  REPRO_METRICS=0 still wins.
        obs.enable()
        self.store, self.queue, self.cache = open_stores(
            config.data_dir,
            capacity=config.queue_capacity,
            memory_items=config.cache_memory_items,
        )
        self.gateway = Gateway(
            self.store,
            self.queue,
            self.cache,
            directory=TenantDirectory(config.tenants_file),
        )
        self.started = time.time()
        #: An optional :class:`repro.cluster.Coordinator` (duck-typed to
        #: avoid a hard import; the cluster package imports service).
        self.coordinator = coordinator
        self.changes = _Changes()
        self.store.on_event = self.changes.bump
        #: The worker pool this service started (:meth:`start_pool`).
        self.pool: WorkerPool | None = None

    def attach_coordinator(self, coordinator) -> None:
        self.coordinator = coordinator

    def start_pool(self) -> list[str]:
        """Spawn the worker pool, wired to this service both ways: each
        marker the service spools wakes the workers, and each event a
        worker appends wakes this service's waiters.  Returns the job
        ids the pool's recovery requeued."""
        config = self.config
        self.pool = WorkerPool(
            config.data_dir,
            workers=config.workers,
            poll_interval=config.poll_interval,
            on_report=self.changes.bump,
        )
        self.queue.on_submit = self.pool.wake
        return self.pool.start()

    # -- operations ------------------------------------------------------

    def submit(self, payload: dict, *, api_key: str | None = None,
               idempotency_key: str | None = None) -> tuple[JobRecord, bool]:
        """Admit one job; returns ``(record, from_cache)``.

        Every submission goes through the gateway: tenant resolution,
        quotas, idempotency and the fair-share tag (see
        :meth:`admit` for the full admission object).  Raises
        :class:`SpecError` (400), ``AuthError`` (401),
        ``ForbiddenError`` (403), ``QuotaExceeded`` /
        :class:`BacklogFull` (429) or ``IdempotencyConflict`` (409).
        """
        admission = self.admit(
            payload, api_key=api_key, idempotency_key=idempotency_key
        )
        return admission.record, admission.from_cache

    def admit(self, payload: dict, *, api_key: str | None = None,
              idempotency_key: str | None = None) -> Admission:
        """Gateway admission with the replay flag the HTTP layer reports."""
        return self.gateway.submit(
            payload, api_key=api_key, idempotency_key=idempotency_key
        )

    def status(
        self, job_id: str, *, tenant: str | None = None, wait: float = 0.0
    ) -> JobRecord | None:
        """The job record — scoped: a foreign tenant sees ``None`` (404).

        ``tenant=None`` means *unscoped* (open mode / internal callers),
        not "a tenant with no name".  With ``wait`` > 0 and a pool to
        report its workers' transitions, the call parks until the job
        is terminal, ``wait`` (at most ``MAX_WAIT_S``) seconds pass or
        ``changes`` is closed (the server is shutting down); without a pool
        it answers at once.
        """
        deadline = time.monotonic() + min(wait, MAX_WAIT_S)
        while True:
            seen = self.changes.generation
            record = self.store.get(job_id)
            if record is not None and tenant is not None and record.tenant != tenant:
                return None
            if record is None or record.terminal or self.pool is None:
                return record
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self.changes.wait(seen, remaining):
                return record

    def cancel(self, job_id: str, *, tenant: str | None = None) -> JobRecord | None:
        """Flag a job for cancellation; queued jobs die immediately."""
        record = self.status(job_id, tenant=tenant)
        if record is None or record.terminal:
            return record
        self.store.request_cancel(job_id)
        if record.state == JobState.QUEUED and self.queue.discard(job_id):
            record = self.store.finish(job_id, JobState.CANCELLED)
        return record

    def result(self, ref: str, *, tenant: str | None = None) -> dict | None:
        """Result payload by digest (full or unique prefix) or job id.

        In tenant mode the payload is only served when ``tenant`` holds
        an ownership grant for the digest — made at admission — so a
        shared cache entry (digest collision-by-sharing) is never
        readable to a tenant who did not submit that work.
        """
        # A full digest (64 hex) goes straight to the cache; anything
        # else is a job id first, then a digest prefix.
        record = self.store.get(ref) if len(ref) != 64 else None
        if record is not None:
            if tenant is not None and record.tenant != tenant:
                return None
            payload = self._cached(record)
            digest = record.digest
        else:
            digest = self.cache.resolve(ref)
            payload = self.cache.get(digest) if digest is not None else None
        if payload is None:
            return None
        if tenant is not None and not self.store.result_access(digest, tenant):
            return None
        return payload

    def _cached(self, record: JobRecord) -> dict | None:
        """The cached result of ``record``'s job.  A done job whose
        result is gone (a damaged entry reads as missing and is dropped)
        is spooled again, so a worker computes it anew."""
        payload = self.cache.get(record.digest)
        if payload is None and record.state == JobState.DONE:
            try:
                self.gateway.respool(record, "result lost")
            except BacklogFull:
                pass  # still spooled by the next gateway recover()
        return payload

    #: Report formats and the content type each is served under.
    REPORT_FORMATS = {
        "gff3": "text/plain; charset=utf-8",
        "json": "application/json",
        "html": "text/html; charset=utf-8",
    }

    def report(
        self, job_id: str, fmt: str = "gff3", *, tenant: str | None = None
    ) -> tuple[str, str] | None:
        """Render a job's annotation artifact from the cached result.

        Returns ``(body, content_type)``, or ``None`` (404) when the
        job or its cached result does not exist.  Unlike :meth:`status`
        — where a foreign tenant cannot even learn a job id exists — a
        report on a *known* job that the tenant does not own raises
        ``ForbiddenError`` (403): the CI smoke drill and clients rely
        on that distinction to tell "not yet done" from "not yours".
        Never re-runs alignment: the result payload and the spec's
        residue text are everything the annotation layer needs.
        """
        from ..annot import annotate_scan
        from ..core.result import RepeatResult
        from ..core.scan import SequenceReport
        from ..sequences.sequence import Sequence

        if fmt not in self.REPORT_FORMATS:
            raise SpecError(
                f"unknown report format {fmt!r} "
                f"(expected one of {sorted(self.REPORT_FORMATS)})"
            )
        record = self.store.get(job_id)
        if record is None:
            return None
        if tenant is not None and record.tenant != tenant and not (
            self.store.result_access(record.digest, tenant)
        ):
            obs.record("repro_annot_reports_denied_total")
            raise ForbiddenError(
                f"tenant {tenant!r} does not own job {job_id}"
            )
        payload = self._cached(record)
        if payload is None:
            return None
        spec = record.spec or {}
        seq_id = spec.get("seq_id") or payload.get("sequence_id") or job_id
        text = (spec.get("sequence") or "").upper()
        sequence = (
            Sequence(text, spec.get("alphabet", "protein"), id=seq_id)
            if text
            else None
        )
        length = len(sequence) if sequence is not None else int(
            payload.get("length", 0)
        )
        seq_report = SequenceReport(
            id=seq_id, length=length, result=RepeatResult.from_dict(payload)
        )
        annotation = annotate_scan([seq_report], [sequence])
        if fmt == "gff3":
            body = annotation.gff3()
        elif fmt == "json":
            body = annotation.profile_json()
        else:
            body = annotation.html(title=f"repro job {job_id} ({seq_id})")
        return body, self.REPORT_FORMATS[fmt]

    def stats(self) -> dict:
        workers = self.store.worker_stats()
        stats = {
            "uptime": time.time() - self.started,
            "queue": {
                "depth": self.queue.depth(),
                "in_flight": self.queue.in_flight(),
                "capacity": self.queue.capacity,
            },
            "jobs": self.store.states(),
            "cache": {**self.cache.stats(), "disk_entries": self.cache.entries()},
            "workers": workers,
            "alignments_total": sum(w.get("alignments", 0) for w in workers.values()),
            "cache_hits_total": sum(w.get("cache_hits", 0) for w in workers.values()),
            "gateway": self.gateway.snapshot(),
        }
        if self.coordinator is not None:
            stats["cluster"] = self.coordinator.stats()
        return stats


@dataclass
class _ServerState:
    """What the request handler needs (attached to the HTTP server)."""

    service: ReproService


class _Handler(BaseHTTPRequestHandler):
    """JSON shim over :class:`ReproService`."""

    #: HTTP/1.0 keeps streamed (close-delimited) bodies trivially correct.
    protocol_version = "HTTP/1.0"
    server_version = "repro-service"
    #: Whether this request's status line has gone out (a 500 cannot follow).
    _responded = False

    @property
    def svc(self) -> ReproService:
        return self.server.state.service  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args) -> None:  # quiet by default
        if os.environ.get("REPRO_SERVICE_LOG"):
            super().log_message(fmt, *args)

    # -- plumbing --------------------------------------------------------

    def _send_json(self, code: int, payload: dict, headers: dict | None = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for key, value in (headers or {}).items():
            self.send_header(key, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(self, code: int, message: str, headers: dict | None = None) -> None:
        self._send_json(code, {"error": message}, headers)

    def send_response(self, code: int, message: str | None = None) -> None:
        self._responded = True
        super().send_response(code, message)

    def _internal_error(self, exc: Exception) -> None:
        """Record the traceback and answer a JSON 500 naming the
        exception, unless a response has begun (a stream cut short):
        then the connection just closes."""
        if self._responded:
            raise exc
        sys.stderr.write(f"{self.command} {self.path} failed:\n")
        traceback.print_exception(exc)
        self._error(500, f"internal error: {type(exc).__name__}")

    def _send_text(self, code: int, body: str, content_type: str) -> None:
        data = body.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    #: Route families that get their own ``endpoint`` label value; any
    #: other path is folded into "other" so stray URLs cannot mint an
    #: unbounded label set.
    _KNOWN_ENDPOINTS = frozenset(
        {"jobs", "results", "stats", "healthz", "metrics"}
    )

    def _count_request(self, parts: list[str]) -> None:
        registry = obs.get_registry()
        if not registry.collecting:
            return
        endpoint = parts[0] if parts else "/"
        if endpoint not in self._KNOWN_ENDPOINTS and endpoint != "/":
            endpoint = "other"
        registry.counter(
            "repro_http_requests_total",
            help="HTTP requests by method and endpoint family",
            method=self.command,
            endpoint=endpoint,
        ).inc()

    def _read_body(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise SpecError("Content-Length must be an integer") from None
        if length <= 0:
            raise SpecError("request body required")
        if length > 64 * 1024 * 1024:
            raise SpecError("request body too large")
        try:
            return json.loads(self.rfile.read(length).decode("utf-8"))
        except ValueError as exc:
            raise SpecError(f"invalid JSON body: {exc}") from None

    # -- tenancy ---------------------------------------------------------

    def _api_key(self) -> str | None:
        auth = self.headers.get("Authorization") or ""
        if auth.lower().startswith("bearer "):
            return auth[7:].strip() or None
        return self.headers.get("X-Api-Key")

    def _tenant_name(self) -> str | None:
        """The caller's tenant, or ``None`` when the gateway runs open.

        Raises ``AuthError``/``ForbiddenError``, mapped to 401/403 by
        the route dispatchers.  ``/healthz``, ``/stats`` and
        ``/metrics`` never call this: they are operator endpoints.
        """
        gateway = self.svc.gateway
        if gateway.directory.open:
            return None
        return gateway.resolve(self._api_key()).name

    # -- routes ----------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        self._count_request(parts)
        try:
            if parts == ["jobs"]:
                self._post_job()
            elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "cancel":
                self._post_cancel(parts[1])
            else:
                self._error(404, f"no such endpoint: POST {url.path}")
        except SpecError as exc:
            self._error(400, str(exc))
        except AuthError as exc:
            self._error(401, str(exc), headers={"WWW-Authenticate": "Bearer"})
        except ForbiddenError as exc:
            self._error(403, str(exc))
        except IdempotencyConflict as exc:
            self._error(409, str(exc))
        except (BacklogFull, QuotaExceeded) as exc:
            self._error(
                429, str(exc), headers={"Retry-After": str(exc.retry_after)}
            )
        except Exception as exc:  # noqa: BLE001 - any other bug answers 500
            self._internal_error(exc)

    def _post_job(self) -> None:
        body = self._read_body()
        admission = self.svc.admit(
            body,
            api_key=self._api_key(),
            idempotency_key=self.headers.get("Idempotency-Key"),
        )
        self._send_json(
            200 if admission.from_cache or admission.replayed else 202,
            {
                **admission.record.to_dict(),
                "from_cache": admission.from_cache,
                "replayed": admission.replayed,
            },
        )

    def _post_cancel(self, job_id: str) -> None:
        record = self.svc.cancel(job_id, tenant=self._tenant_name())
        if record is None:
            self._error(404, f"no such job: {job_id}")
        else:
            self._send_json(200, record.to_dict())

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        url = urlparse(self.path)
        parts = [p for p in url.path.split("/") if p]
        query = parse_qs(url.query)
        self._count_request(parts)
        try:
            self._get_route(url, parts, query)
        except AuthError as exc:
            self._error(401, str(exc), headers={"WWW-Authenticate": "Bearer"})
        except ForbiddenError as exc:
            self._error(403, str(exc))
        except Exception as exc:  # noqa: BLE001 - any other bug answers 500
            self._internal_error(exc)

    def _get_route(self, url, parts: list[str], query: dict) -> None:
        if parts == ["healthz"]:
            self._send_json(200, {"ok": True})
        elif parts == ["stats"]:
            self._send_json(200, self.svc.stats())
        elif parts == ["metrics"]:
            pool = self.svc.pool
            self._send_text(
                200,
                render_service_metrics(
                    self.svc,
                    workers_alive=pool.alive_count() if pool is not None else None,
                ),
                obs.CONTENT_TYPE,
            )
        elif len(parts) == 2 and parts[0] == "jobs":
            try:
                wait = float((query.get("wait") or ["0"])[0])
            except ValueError:
                wait = -1.0
            if not wait >= 0:  # also rejects nan
                self._error(400, "wait must be a non-negative number of seconds")
                return
            record = self.svc.status(
                parts[1], tenant=self._tenant_name(), wait=wait
            )
            if record is None:
                self._error(404, f"no such job: {parts[1]}")
            else:
                self._send_json(200, record.to_dict())
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "events":
            self._get_events(parts[1], query)
        elif len(parts) == 3 and parts[0] == "jobs" and parts[2] == "report":
            self._get_report(parts[1], query)
        elif len(parts) == 2 and parts[0] == "results":
            payload = self.svc.result(parts[1], tenant=self._tenant_name())
            if payload is None:
                self._error(404, f"no cached result for: {parts[1]}")
            else:
                self._send_json(200, payload)
        else:
            self._error(404, f"no such endpoint: GET {url.path}")

    def _get_report(self, job_id: str, query: dict) -> None:
        fmt = (query.get("format") or ["gff3"])[0]
        try:
            rendered = self.svc.report(
                job_id, fmt, tenant=self._tenant_name()
            )
        except SpecError as exc:
            self._error(400, str(exc))
            return
        if rendered is None:
            self._error(404, f"no reportable result for job: {job_id}")
        else:
            body, content_type = rendered
            self._send_text(200, body, content_type)

    def _get_events(self, job_id: str, query: dict) -> None:
        store, changes = self.svc.store, self.svc.changes
        if self.svc.status(job_id, tenant=self._tenant_name()) is None:
            self._error(404, f"no such job: {job_id}")
            return
        since = int((query.get("since") or ["0"])[0])
        follow = (query.get("follow") or ["0"])[0] not in ("0", "", "false")
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()
        offset = since
        deadline = time.monotonic() + _FOLLOW_TIMEOUT
        # Re-read at least every poll_interval: a server without a pool
        # hears nothing of an outside worker's appends.
        recheck = self.svc.config.poll_interval
        while True:
            seen = changes.generation
            # The record before the log: a terminal transition appends
            # its event first (JobStore.finish), so the read below then
            # holds the job's last event.
            record = store.get(job_id)
            events = store.read_events(job_id, offset)
            for event in events:
                self.wfile.write(
                    (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")
                )
            if events:
                offset += len(events)
                self.wfile.flush()
            if not follow or record is None or record.terminal:
                break
            if time.monotonic() > deadline or not changes.wait(seen, recheck):
                break


def serve(config: ServiceConfig) -> int:
    """Run the full service (pool + HTTP) until SIGTERM/SIGINT; returns exit code."""
    service = ReproService(config)

    coordinator = None
    if config.cluster_port is not None:
        # Deferred import: repro.cluster imports repro.service, so the
        # dependency must only ever point one way at module-import time.
        from ..cluster.coordinator import Coordinator, CoordinatorConfig

        coordinator = Coordinator(
            CoordinatorConfig(host=config.host, port=config.cluster_port)
        ).start()
        service.attach_coordinator(coordinator)
        print(
            f"repro cluster coordinator listening on {coordinator.address}",
            flush=True,
        )

    if config.workers > 0:
        requeued = service.start_pool()
        if requeued:
            print(f"recovered {len(requeued)} interrupted job(s)", flush=True)
    else:
        # No pool in this process (external workers): still requeue
        # anything a dead pool left claimed.
        recover(service.store, service.queue)

    # Quota ledgers and fair-share tags rebuild from the job store and
    # the spool markers.  SIGHUP hot-reloads the tenant file without
    # dropping a request.
    respooled = service.gateway.recover()
    if respooled:
        print(f"spooled {respooled} job(s) that had no marker", flush=True)
    service.gateway.directory.install_sighup()

    httpd = ThreadingHTTPServer((config.host, config.port), _Handler)
    httpd.daemon_threads = True
    httpd.state = _ServerState(service=service)  # type: ignore[attr-defined]
    host, port = httpd.server_address[:2]
    mode = "open" if service.gateway.directory.open else (
        f"tenants={','.join(service.gateway.directory.names())}"
    )
    print(
        f"repro service listening on http://{host}:{port} "
        f"(workers={config.workers}, queue_capacity={config.queue_capacity}, "
        f"{mode}, data={config.data_dir})",
        flush=True,
    )

    exit_code = {"value": 0}

    def _shutdown(_signum=None, _frame=None) -> None:
        if service.changes.closed:
            return
        service.changes.close()
        # shutdown() must come from another thread than serve_forever's.
        threading.Thread(target=httpd.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _shutdown)
    signal.signal(signal.SIGINT, _shutdown)

    try:
        httpd.serve_forever(poll_interval=0.1)
    finally:
        httpd.server_close()
        if coordinator is not None:
            coordinator.stop()
        pool = service.pool
        if pool is not None:
            clean = pool.stop(graceful=True, timeout=30.0)
            if not clean:
                exit_code["value"] = 1
            print(
                "repro service stopped"
                + ("" if clean else " (worker drain was not clean)"),
                flush=True,
            )
        else:
            print("repro service stopped", flush=True)
    return exit_code["value"]
