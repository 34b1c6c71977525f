"""The two out-of-process paths: ``repro serve`` and a two-node cluster.

A session owns its program processes (ephemeral ports, a temp data dir
inside the benchmark's work directory) from :meth:`start` to
:meth:`stop`.  ``serve_mixed`` and ``cluster_scan`` drive a session as
their measured path; the other workloads drive a short one on their own
inputs during the traced run, so every layer has a number on every
workload.
"""

from __future__ import annotations

import random
import tempfile
import threading
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from procs import Program, stop_all
from reference import record_key
from repro.cluster import ClusterClient
from repro.service import JobSpec, ServiceClient, ServiceError

SERVE_WORKERS = 2
CLIENT_THREADS = 2
CLUSTER_NODES = 2
POLL_SECONDS = 0.01


def _wait_until(predicate, what: str, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() >= deadline:
            raise TimeoutError(f"timed out waiting for {what}")
        time.sleep(0.005)


@dataclass
class JobTiming:
    """One job as the client saw it (perf_counter) and as the server
    stamped it (``created``/``started``/``finished``, wall clock)."""

    seq_id: str
    submit_start: float = 0.0
    submit_end: float = 0.0
    wait_end: float = 0.0
    fetch_end: float = 0.0
    created: float = 0.0
    started: float = 0.0
    finished: float = 0.0
    from_cache: bool = False
    key: str = ""
    error: str = ""

    @property
    def latency(self) -> float:
        return self.fetch_end - self.submit_start


class ServeSession:
    """``python -m repro serve --port 0 --workers 2`` plus its clients."""

    def __init__(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.seed = seed
        self.program: Program | None = None
        self.url = ""

    def start(self) -> None:
        data_dir = tempfile.mkdtemp(prefix="serve-", dir=self.workdir)
        self.program = Program(
            ["serve", "--port", "0", "--workers", str(SERVE_WORKERS),
             "--data-dir", data_dir],
            Path(data_dir) / "serve.log",
        )
        banner = self.program.wait_banner("repro service listening on ")
        self.url = banner.split()[0]
        client = self._client(0)
        _wait_until(lambda: client.healthz().get("ok"), "service health")
        # The banner prints before the spawned workers finish importing;
        # a worker is up once it has published its stats record.
        _wait_until(
            lambda: len(client.stats()["workers"]) >= SERVE_WORKERS, "service workers"
        )

    def stop(self) -> None:
        if self.program is not None:
            self.program.stop()

    @property
    def maxrss_mb(self) -> float:
        return self.program.maxrss_mb if self.program is not None else 0.0

    def _client(self, thread: int) -> ServiceClient:
        # The rng only jitters the back-off after a 429.
        return ServiceClient(self.url, rng=random.Random(self.seed * 1000 + thread))

    def _one_job(self, client: ServiceClient, spec: dict[str, Any]) -> JobTiming:
        timing = JobTiming(seq_id=spec["seq_id"], submit_start=time.perf_counter())
        try:
            record = client.submit(spec)
            timing.submit_end = time.perf_counter()
            done = client.wait(record["id"], poll=POLL_SECONDS)
            timing.wait_end = time.perf_counter()
            if done["state"] != "done":
                timing.error = f"state {done['state']}: {done.get('error', '')}"
            else:
                timing.key = record_key(client.result(done["digest"]))
            timing.created = done["created"]
            timing.started = done["started"]
            timing.finished = done["finished"]
            timing.from_cache = bool(done["served_from_cache"])
        except (ServiceError, OSError, TimeoutError) as exc:
            timing.error = f"{type(exc).__name__}: {exc}"
        timing.fetch_end = time.perf_counter()
        return timing

    def run_schedule(self, specs: list[dict[str, Any]]) -> tuple[float, list[JobTiming]]:
        """Closed loop: each client thread submits its next job only after
        fetching the previous result.  Returns (schedule wall, timings)."""
        timings: list[JobTiming | None] = [None] * len(specs)
        cursor = iter(range(len(specs)))
        lock = threading.Lock()

        def worker(thread: int) -> None:
            client = self._client(thread)
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                timings[index] = self._one_job(client, specs[index])

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(CLIENT_THREADS)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - started
        return wall, [t for t in timings if t is not None]

    def http_roundtrips(self, count: int) -> list[float]:
        client = self._client(0)
        out = []
        for _ in range(count):
            started = time.perf_counter()
            client.healthz()
            out.append(time.perf_counter() - started)
        return out

    def rejected_share(self) -> float:
        """Gateway rejections ÷ HTTP requests, from ``GET /metrics``."""
        with urllib.request.urlopen(f"{self.url}/metrics", timeout=30) as response:
            text = response.read().decode("utf-8")
        sums = {"repro_gateway_rejections_total": 0.0, "repro_http_requests_total": 0.0}
        for line in text.splitlines():
            family = line.split("{", 1)[0].split(" ", 1)[0]
            if family in sums:
                sums[family] += float(line.rsplit(" ", 1)[1])
        requests = sums["repro_http_requests_total"]
        return sums["repro_gateway_rejections_total"] / requests if requests else 0.0


class ClusterSession:
    """``repro cluster coordinator`` plus two ``repro cluster node``."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.programs: list[Program] = []
        self.client: ClusterClient | None = None

    def start(self) -> None:
        log_dir = Path(tempfile.mkdtemp(prefix="cluster-", dir=self.workdir))
        coordinator = Program(
            ["cluster", "coordinator", "--port", "0"], log_dir / "coordinator.log"
        )
        self.programs.append(coordinator)
        address = coordinator.wait_banner("repro cluster coordinator listening on ")
        host, _, port = address.rpartition(":")
        for i in range(CLUSTER_NODES):
            self.programs.append(
                Program(
                    ["cluster", "node", "--join", address, "--node-id", f"node{i}"],
                    log_dir / f"node{i}.log",
                )
            )
        self.client = ClusterClient(host, int(port))
        client = self.client
        _wait_until(
            lambda: client.stats()["nodes_alive"] >= CLUSTER_NODES, "cluster nodes"
        )

    def stop(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        # Nodes first: they drain and say goodbye to a live coordinator.
        stop_all(self.programs[1:] + self.programs[:1])

    @property
    def maxrss_mb(self) -> float:
        return max((p.maxrss_mb for p in self.programs), default=0.0)

    def scan(
        self, spec: JobSpec, records: list[dict[str, str]]
    ) -> tuple[float, list[dict[str, Any]], dict[str, Any]]:
        """One sharded scan: (wall, merged reports, scheduler stats)."""
        assert self.client is not None
        started = time.perf_counter()
        job_id = self.client.submit_scan(spec, records)
        reports = self.client.wait_scan(job_id, poll=POLL_SECONDS)
        wall = time.perf_counter() - started
        scheduler = self.client.job_status(job_id)["scheduler"]
        return wall, reports, scheduler

    def stats(self) -> dict[str, Any]:
        assert self.client is not None
        return self.client.stats()

    def frame_roundtrips(self, count: int) -> list[float]:
        out = []
        for _ in range(count):
            started = time.perf_counter()
            self.stats()
            out.append(time.perf_counter() - started)
        return out
