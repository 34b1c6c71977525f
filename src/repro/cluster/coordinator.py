"""The cluster coordinator: node registry + lease scheduler over TCP.

One coordinator federates any number of worker nodes behind a single
address.  Its moving parts:

* an **accept loop** handing each connection (node or client) to a
  dedicated handler thread — connections are long-lived, one per peer;
* the **node registry** (:mod:`repro.cluster.registry`), fed by
  heartbeats and connection state.  A SIGKILLed node is detected on
  the *fast path* — its TCP connection drops and the handler thread
  releases its leases immediately — with stale-heartbeat expiry as the
  slow-path backstop;
* per-job **lease schedulers** (:mod:`repro.cluster.shards`), asked
  by nodes: a ``ready`` frame returns a lease or a ``shutdown``, and
  when nothing is leasable the request *parks* on the coordinator until
  something is (or ``heartbeat_interval`` passes, then ``wait``: "ask
  again now").  Leases that expire or belong to dead nodes go back to
  pending, so no shard is ever lost with a node;
* a **monitor thread** driving heartbeat expiry, lease deadlines and
  the registered/alive gauges;
* a private, always-collecting :class:`~repro.obs.MetricsRegistry`
  holding the ``repro_cluster_*`` families — independent of the
  process-wide ``REPRO_METRICS`` gate because a coordinator without
  visibility into its nodes is not operable.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any

from ..obs import LATENCY_BUCKETS, MetricsRegistry
from ..obs.prometheus import render_prometheus
from ..service.protocol import JobSpec
from . import protocol
from .execution import merge_scan_reports, scan_shard_priorities, scan_spec_dict
from .registry import NodeRegistry
from .shards import Shard, ShardScheduler, merge_shard_results, plan_record_shards
from .transport import Channel, FrameError, Listener

__all__ = ["ClusterJob", "Coordinator", "CoordinatorConfig"]

#: Shard latency buckets: sub-second toy shards up to multi-minute scans.
SHARD_BUCKETS = LATENCY_BUCKETS

#: Finished jobs (done or failed) a coordinator keeps answering status
#: and wait requests for; a job holds its merged result, so older ones
#: are dropped when a new job is registered.
FINISHED_JOBS_KEPT = 16


@dataclass
class CoordinatorConfig:
    """Tuning knobs of one coordinator."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral (the listener reports the real port)
    heartbeat_interval: float = 1.0  # what nodes are told to send
    node_timeout: float = 6.0  # stale-heartbeat expiry (slow path)
    lease_seconds: float = 60.0
    scan_shard_size: int = 4  # records per scan shard
    max_attempts: int = 4
    backoff_base: float = 0.25
    backoff_cap: float = 10.0
    max_duplicates: int = 2
    monitor_interval: float = 0.25


class ClusterJob:
    """One cluster-wide scan: a shard scheduler plus completion state."""

    def __init__(self, job_id: str, scheduler: ShardScheduler,
                 n_shards: int, spec: JobSpec, tenant: str = "") -> None:
        self.job_id = job_id
        self.scheduler = scheduler
        self.n_shards = n_shards
        self.spec = spec
        #: Owning tenant (gateway admission); "" for untenanted work.
        self.tenant = tenant
        self.created = time.time()
        self.done = threading.Event()
        self.state = "running"
        self.error: str | None = None
        self.result: Any = None  # merged report dicts

    def status(self) -> dict[str, Any]:
        stats = self.scheduler.stats()
        return {
            "job_id": self.job_id,
            "kind": "scan",
            "state": self.state,
            "tenant": self.tenant,
            "error": self.error,
            "shards": stats["shards"],
            "shards_done": stats["done"],
            "in_flight": stats["in_flight"],
            "scheduler": stats,
        }


class Coordinator:
    """Accepts nodes and clients; schedules shards; survives node death."""

    def __init__(self, config: CoordinatorConfig | None = None) -> None:
        self.config = config or CoordinatorConfig()
        self._listener = Listener(self.config.host, self.config.port)
        self.registry = NodeRegistry()
        self.metrics = MetricsRegistry()
        self._jobs_lock = threading.Lock()
        #: Parked lease requests wait here; notified on every change
        #: that can make a lease (see :meth:`_lease_for`).
        self._work = threading.Condition(self._jobs_lock)
        self._jobs: dict[str, ClusterJob] = {}
        self._job_seq = 0
        self._stopping = threading.Event()
        self._threads: list[threading.Thread] = []
        self.started = time.time()
        #: (job_id, lease_id) → monotonic issue time; resolved into the
        #: lease-latency EWMA when the shard's result arrives.
        self._lease_issued_at: dict[tuple[str, int], float] = {}
        #: EWMA of issue→result latency — the autoscale "are shards
        #: taking longer than they should" signal (0 until first result).
        self.lease_latency = 0.0
        self._latency_alpha = 0.2
        # Pre-create the families so /metrics shows them at zero.
        self._g_registered = self.metrics.gauge(
            "repro_cluster_nodes_registered",
            help="Worker nodes that ever joined this coordinator",
        )
        self._g_alive = self.metrics.gauge(
            "repro_cluster_nodes_alive", help="Worker nodes currently alive"
        )
        self._c_issued = self.metrics.counter(
            "repro_cluster_leases_issued_total", help="Shard leases handed out"
        )
        self._c_expired = self.metrics.counter(
            "repro_cluster_leases_expired_total",
            help="Leases that passed their deadline and were reassigned",
        )
        self._c_stolen = self.metrics.counter(
            "repro_cluster_leases_stolen_total",
            help="Duplicate leases issued to idle nodes (work stealing)",
        )
        self._c_released = self.metrics.counter(
            "repro_cluster_leases_released_total",
            help="Leases released because their node died",
        )
        self._h_shard = self.metrics.histogram(
            "repro_cluster_shard_seconds",
            buckets=SHARD_BUCKETS,
            help="Node-reported shard execution latency",
        )
        self.metrics.counter(
            "repro_cluster_results_total",
            help="Shard results received, by status",
            status="ok",
        )
        self._c_drained = self.metrics.counter(
            "repro_cluster_nodes_drained_total",
            help="Nodes that left via a clean goodbye drain",
        )
        self._g_queue_depth = self.metrics.gauge(
            "repro_cluster_queue_depth",
            help="Unleased shards across running jobs (autoscale signal)",
        )
        self._g_lease_latency = self.metrics.gauge(
            "repro_cluster_lease_latency_seconds",
            help="EWMA of lease issue-to-result latency (autoscale signal)",
        )
        #: Tenants whose backlog gauge was ever published (kept at zero
        #: after their work drains; see render_metrics).
        self._backlog_tenants: set[str] = set()

    # -- lifecycle -------------------------------------------------------

    @property
    def address(self) -> str:
        return self._listener.address

    @property
    def port(self) -> int:
        return self._listener.port

    def start(self) -> "Coordinator":
        if self._threads:
            return self  # already running
        accept = threading.Thread(
            target=self._accept_loop, name="cluster-accept", daemon=True
        )
        monitor = threading.Thread(
            target=self._monitor_loop, name="cluster-monitor", daemon=True
        )
        accept.start()
        monitor.start()
        self._threads = [accept, monitor]
        return self

    def stop(self, timeout: float = 10.0) -> None:
        self._stopping.set()
        self._wake()  # parked lease requests answer ``shutdown``
        self._listener.close()
        for thread in self._threads:
            thread.join(timeout=timeout)
        with self._jobs_lock:
            running = [job for job in self._jobs.values() if job.state == "running"]
        for job in running:
            self._finish(job, "coordinator stopped")

    def __enter__(self) -> "Coordinator":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- job submission --------------------------------------------------

    def submit_scan(
        self, spec: JobSpec, records: list[dict[str, str]],
        options: dict[str, Any] | None = None, tenant: str = "",
    ) -> ClusterJob:
        """Shard a database scan over the cluster; returns the live job."""
        if not records:
            raise ValueError("a scan needs at least one record")
        spec_payload = scan_spec_dict(spec)
        ranges = plan_record_shards(len(records), self.config.scan_shard_size)
        # With indexing on, lease repeat-promising record ranges first:
        # first-result-wins then finishes the interesting shards early.
        priorities = scan_shard_priorities(spec, records, ranges, options or {})
        shards = [
            Shard(
                shard_id=i,
                payload=protocol.scan_shard(
                    i, spec_payload, records[start:stop], start, options
                ),
                priority=priorities[i],
            )
            for i, (start, stop) in enumerate(ranges)
        ]
        scheduler = ShardScheduler(
            shards,
            lease_seconds=self.config.lease_seconds,
            max_attempts=self.config.max_attempts,
            backoff_base=self.config.backoff_base,
            backoff_cap=self.config.backoff_cap,
            max_duplicates=self.config.max_duplicates,
        )
        with self._jobs_lock:
            self._job_seq += 1
            job_id = f"cj-{self._job_seq:06d}"
            job = ClusterJob(job_id, scheduler, len(shards), spec, tenant)
            finished = [
                old_id for old_id, old in self._jobs.items() if old.state != "running"
            ]
            for old_id in finished[:-FINISHED_JOBS_KEPT]:
                del self._jobs[old_id]
            self._jobs[job_id] = job
            self._work.notify_all()
        return job

    def wait(self, job: ClusterJob, timeout: float | None = None) -> ClusterJob:
        """Block until ``job`` reaches a terminal state."""
        if not job.done.wait(timeout):
            raise TimeoutError(f"cluster job {job.job_id} still running")
        return job

    def get_job(self, job_id: str) -> ClusterJob | None:
        with self._jobs_lock:
            return self._jobs.get(job_id)

    # -- accept / per-connection handlers --------------------------------

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                channel = self._listener.accept(timeout=0.5)
            except TimeoutError:
                continue
            except OSError:
                return  # listener closed by stop()
            threading.Thread(
                target=self._serve_connection,
                args=(channel,),
                name=f"cluster-conn-{channel.peername()}",
                daemon=True,
            ).start()

    def _serve_connection(self, channel: Channel) -> None:
        try:
            hello = channel.recv(timeout=10.0)
        except (FrameError, TimeoutError, OSError):
            channel.close()
            return
        if not isinstance(hello, dict) or hello.get("kind") != protocol.HELLO:
            channel.close()
            return
        role = hello.get("role", "node")
        try:
            if role == "node":
                self._serve_node(channel, hello)
            else:
                self._serve_client(channel)
        finally:
            channel.close()

    def _serve_node(self, channel: Channel, hello: dict) -> None:
        node_id = str(hello.get("node_id") or f"node-{channel.peername()}")
        self.registry.register(
            node_id,
            address=channel.peername(),
            pid=int(hello.get("pid", 0)),
            meta={"capacity": hello.get("capacity", 1)},
        )
        self._refresh_node_gauges()
        channel.send({
            "kind": protocol.WELCOME,
            "node_id": node_id,
            "heartbeat_interval": self.config.heartbeat_interval,
        })
        try:
            while not self._stopping.is_set():
                frame = channel.recv(timeout=3600.0)
                if not isinstance(frame, dict):
                    raise FrameError(f"a node sent a {type(frame).__name__} frame")
                kind = frame.get("kind")
                if kind == protocol.READY:
                    channel.send(self._lease_for(node_id))
                elif kind == protocol.HEARTBEAT:
                    self.registry.heartbeat(node_id)
                elif kind == protocol.RESULT:
                    self._handle_result(node_id, frame)
                elif kind == protocol.GOODBYE:
                    # Clean drain: the node reported every lease it held
                    # before saying goodbye, so there is nothing to fail
                    # over — just stop counting it toward capacity.
                    self.registry.mark_drained(node_id)
                    self._c_drained.inc()
                    break
                else:
                    channel.send({
                        "kind": protocol.ERROR,
                        "error": f"unexpected frame kind {kind!r} from a node",
                    })
        except (FrameError, TimeoutError, OSError):
            pass  # connection gone, or the node broke the protocol
        finally:
            # However the loop ends, the node's leases go back at once.
            self._node_lost(node_id)

    def _serve_client(self, channel: Channel) -> None:
        channel.send({"kind": protocol.WELCOME, "role": "client"})
        while not self._stopping.is_set():
            try:
                frame = channel.recv(timeout=3600.0)
            except (FrameError, TimeoutError, OSError):
                return
            try:
                channel.send(self._client_response(frame))
            except (FrameError, OSError):
                return

    def _client_response(self, frame: dict) -> dict:
        if not isinstance(frame, dict):
            return {"kind": protocol.ERROR, "error": "a request is a JSON object"}
        kind = frame.get("kind")
        try:
            if kind == protocol.SUBMIT_SCAN:
                spec = JobSpec.from_dict(frame["spec"])
                job = self.submit_scan(
                    spec, frame["records"], frame.get("options"),
                    tenant=str(frame.get("tenant", "")),
                )
                return {
                    "kind": protocol.OK,
                    "job_id": job.job_id,
                    "n_shards": job.n_shards,
                }
            if kind == protocol.JOB_STATUS:
                job = self.get_job(frame["job_id"])
                if job is None:
                    return {"kind": protocol.ERROR, "error": "no such job"}
                wait = float(frame.get("wait") or 0.0)
                if wait > 0:
                    job.done.wait(min(wait, protocol.JOB_STATUS_WAIT_MAX))
                status = job.status()
                if job.state == "done":
                    status["reports"] = job.result
                return {"kind": protocol.OK, "status": status}
            if kind == protocol.STATS:
                return {"kind": protocol.OK, "stats": self.stats()}
            if kind == protocol.METRICS:
                return {"kind": protocol.OK, "text": self.render_metrics()}
            return {"kind": protocol.ERROR, "error": f"unknown request {kind!r}"}
        except (KeyError, ValueError, TypeError) as exc:
            return {"kind": protocol.ERROR, "error": str(exc)}

    # -- scheduling ------------------------------------------------------

    def _wake(self) -> None:
        """Wake every parked lease request: the lease picture changed."""
        with self._work:
            self._work.notify_all()

    def _lease_for(self, node_id: str) -> dict:
        """The reply to a node's ``ready``: a lease as soon as one exists.

        With nothing leasable the request parks on ``_work`` until a
        state change that can make a lease notifies it, the earliest
        backoff among running jobs passes, or ``heartbeat_interval``
        does.  The cap matters: this handler is the only reader of the
        node's channel, so the node's heartbeats and ``goodbye`` queue
        unread while it parks.  Only then ``wait`` ("ask again now").
        """
        deadline = time.monotonic() + self.config.heartbeat_interval
        with self._work:
            while not self._stopping.is_set():
                now = time.monotonic()
                running = [j for j in self._jobs.values() if j.state == "running"]
                for job in running:
                    lease = job.scheduler.next_lease(node_id, now)
                    if lease is not None:
                        self._c_issued.inc()
                        if lease.stolen:
                            self._c_stolen.inc()
                        self._lease_issued_at[(job.job_id, lease.lease_id)] = now
                        self._work.notify_all()  # a new steal candidate
                        return {
                            "kind": protocol.LEASE,
                            "job_id": job.job_id,
                            "lease_id": lease.lease_id,
                            "attempt": lease.attempt,
                            "shard": lease.shard.payload,
                        }
                if now >= deadline:
                    return {"kind": protocol.WAIT}
                wake = min([deadline, *(j.scheduler.backoff_until(now) for j in running)])
                self._work.wait(wake - now)
        return {"kind": protocol.SHUTDOWN}

    def _handle_result(self, node_id: str, frame: dict) -> None:
        job = self.get_job(str(frame.get("job_id", "")))
        if job is None:
            return
        lease_id = int(frame.get("lease_id", -1))
        elapsed = float(frame.get("elapsed", 0.0))
        with self._jobs_lock:
            issued = self._lease_issued_at.pop((job.job_id, lease_id), None)
        if issued is not None:
            latency = max(0.0, time.monotonic() - issued)
            self.lease_latency = (
                latency if self.lease_latency == 0.0
                else self._latency_alpha * latency
                + (1 - self._latency_alpha) * self.lease_latency
            )
        if frame.get("ok"):
            won = job.scheduler.complete(lease_id, frame.get("value"))
            if won:
                self._h_shard.observe(elapsed)
                self.metrics.counter(
                    "repro_cluster_results_total", status="ok"
                ).inc()
                self.registry.record_shard(
                    node_id, records=int(frame.get("records", 0))
                )
                if job.scheduler.done:
                    self._finish(job)
            else:
                self.metrics.counter(
                    "repro_cluster_results_total", status="duplicate"
                ).inc()
        else:
            self.metrics.counter(
                "repro_cluster_results_total", status="error"
            ).inc()
            self.registry.record_shard(node_id, failed=True)
            retrying = job.scheduler.fail(
                lease_id, str(frame.get("error", "shard failed")), time.monotonic()
            )
            if not retrying:
                self._finish(job, job.scheduler.failure)
        self._wake()  # a requeued shard, or a new backoff to wake at

    def _finish(self, job: ClusterJob, error: str | None = None) -> None:
        """Move a running ``job`` to ``done``, or to ``failed`` with ``error``.

        The one place a job stops running, so it is where the issue
        stamps of its leases still out (late duplicates, a dead node's
        lease) are dropped: they will never resolve, and the map must
        not grow without bound.
        """
        result = None
        if error is None:
            result = merge_scan_reports(
                merge_shard_results(job.scheduler.results(), job.n_shards)
            )
        with self._jobs_lock:
            if job.state != "running":
                return
            if error is None:
                job.result, job.state = result, "done"
            else:
                job.error, job.state = error, "failed"
            for key in [k for k in self._lease_issued_at if k[0] == job.job_id]:
                del self._lease_issued_at[key]
        job.done.set()

    # -- failover --------------------------------------------------------

    def _node_lost(self, node_id: str) -> None:
        if self.registry.mark_dead(node_id):
            self._release_node_leases(node_id)
        self._refresh_node_gauges()

    def _release_node_leases(self, node_id: str) -> None:
        with self._jobs_lock:
            jobs = [j for j in self._jobs.values() if j.state == "running"]
        for job in jobs:
            released = job.scheduler.release_node(node_id)
            if released:
                self._c_released.inc(len(released))
        self._wake()

    def _monitor_loop(self) -> None:
        while not self._stopping.is_set():
            for node_id in self.registry.expire(self.config.node_timeout):
                self._release_node_leases(node_id)
            now = time.monotonic()
            with self._jobs_lock:
                jobs = [j for j in self._jobs.values() if j.state == "running"]
            for job in jobs:
                expired = job.scheduler.expire(now)
                if expired:
                    self._c_expired.inc(len(expired))
                    self._wake()
            self._refresh_node_gauges()
            self._stopping.wait(self.config.monitor_interval)

    def _refresh_node_gauges(self) -> None:
        self._g_registered.set(self.registry.registered_count())
        self._g_alive.set(self.registry.alive_count())

    # -- introspection ---------------------------------------------------

    def autoscale(self) -> dict[str, Any]:
        """The signals an external autoscaler needs to size the fleet.

        ``queue_depth`` (unleased shards waiting for a node),
        ``lease_latency`` (EWMA of issue→result seconds) and the
        per-tenant shard backlog: depth × latency ≈ seconds of queued
        work, the scale-up trigger; alive > backlog ≈ idle capacity,
        the scale-down one.  Published on ``/stats`` and as
        ``repro_cluster_*`` gauges on ``/metrics``.
        """
        with self._jobs_lock:
            running = [j for j in self._jobs.values() if j.state == "running"]
        queue_depth = 0
        backlog: dict[str, int] = {}
        for job in running:
            pending = job.scheduler.pending()
            queue_depth += pending
            tenant = job.tenant or "public"
            backlog[tenant] = backlog.get(tenant, 0) + pending
        return {
            "queue_depth": queue_depth,
            "lease_latency": self.lease_latency,
            "nodes_alive": self.registry.alive_count(),
            "nodes_drained": self.registry.drained_count(),
            "tenant_backlog": dict(sorted(backlog.items())),
        }

    def stats(self) -> dict[str, Any]:
        with self._jobs_lock:
            jobs = {job_id: job.status() for job_id, job in self._jobs.items()}
        return {
            "address": self.address,
            "uptime": time.time() - self.started,
            "nodes_registered": self.registry.registered_count(),
            "nodes_alive": self.registry.alive_count(),
            "nodes_drained": self.registry.drained_count(),
            "nodes": self.registry.snapshot(),
            "jobs": jobs,
            "autoscale": self.autoscale(),
        }

    def render_metrics(self) -> str:
        self._refresh_node_gauges()
        signals = self.autoscale()
        self._g_queue_depth.set(signals["queue_depth"])
        self._g_lease_latency.set(signals["lease_latency"])
        backlog = signals["tenant_backlog"]
        # Drained tenants drop to an explicit 0, not a stale last value.
        self._backlog_tenants |= set(backlog)
        for tenant in sorted(self._backlog_tenants):
            self.metrics.gauge(
                "repro_cluster_tenant_backlog",
                help="Unleased shards per owning tenant (autoscale signal)",
                tenant=tenant,
            ).set(backlog.get(tenant, 0))
        return render_prometheus(self.metrics)
