#!/usr/bin/env python
"""Cluster smoke test: coordinator + 3 nodes, sharded scan, SIGKILL failover.

Everything runs as real subprocesses on loopback, the way an operator
would run it:

* ``repro serve --cluster-port 0 --workers 1`` — the service with an
  attached coordinator and one local worker — plus three
  ``repro cluster node`` workers;
* a sharded multi-record scan through :class:`ClusterClient` must be
  **bit-identical** (JSON byte equality) to the single-process
  :class:`DatabaseScanner` over the same records;
* ``POST /jobs`` on the service still goes to the spool with nodes
  alive (the ``queued`` event carries no ``route``), is run by the
  local worker, and the result matches an in-process library run;
* ``GET /metrics`` exposes ``repro_cluster_*`` families and shows at
  least 3 registered nodes;
* a standalone ``repro cluster coordinator`` then runs the failover
  drill: a node is SIGKILLed while holding a shard lease and the scan
  still completes bit-identical once its lease is reassigned.

Node/coordinator output lands in ``--log-dir`` so CI can upload the
logs as artifacts.  Exits non-zero on any failure::

    python examples/cluster_smoke.py --log-dir cluster-logs
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

from repro.cluster import ClusterClient
from repro.cluster.execution import index_config_from_options
from repro.cluster.protocol import report_to_dict
from repro.core.scan import DatabaseScanner
from repro.sequences import Sequence, pseudo_titin
from repro.service import JobSpec, ServiceClient
from repro.service.protocol import finder_for

RECORDS = [
    {"id": f"rec{i:02d}", "sequence": pseudo_titin(60 + 5 * i, seed=i).text}
    for i in range(8)
]
SPEC = {"sequence": "AA", "alphabet": "protein", "top_alignments": 3}


def _local_reports(options: dict) -> list[dict]:
    scanner = DatabaseScanner(
        finder=finder_for(JobSpec.from_dict(SPEC)),
        index=index_config_from_options(options),
    )
    sequences = [
        Sequence(rec["sequence"], "protein", id=rec["id"]) for rec in RECORDS
    ]
    return [report_to_dict(r) for r in scanner.scan(sequences)]


def _canon(reports: list[dict]) -> str:
    return json.dumps(reports, sort_keys=True)


def _spawn(cmd: list[str], log_path: Path, **env_extra) -> subprocess.Popen:
    env = dict(os.environ)
    env.update(env_extra)
    log = open(log_path, "w")  # noqa: SIM115 - lives as long as the process
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *cmd],
        stdout=log,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )


def _spawn_banner(cmd: list[str], log_path: Path, banner: str) -> tuple[subprocess.Popen, str]:
    """Spawn, tail the log until ``banner`` appears, return its tail."""
    proc = _spawn(cmd, log_path)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        text = log_path.read_text() if log_path.exists() else ""
        for line in text.splitlines():
            if banner in line:
                return proc, line.split(banner, 1)[1].strip()
        if proc.poll() is not None:
            raise RuntimeError(f"{cmd} exited {proc.returncode}: {text}")
        time.sleep(0.1)
    proc.kill()
    raise RuntimeError(f"no {banner!r} banner in {log_path}")


def _wait_nodes(client: ClusterClient, count: int, timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if client.stats()["nodes_alive"] >= count:
            return
        time.sleep(0.1)
    raise RuntimeError(f"never saw {count} alive nodes")


def _split_address(address: str) -> tuple[str, int]:
    host, _, port = address.rpartition(":")
    return host, int(port)


def _stop(procs: list[subprocess.Popen]) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
    for proc in procs:
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)


def phase_service_cluster(log_dir: Path, data_dir: Path, options: dict) -> None:
    """Service + coordinator + 3 nodes: scan, a spooled job, metrics."""
    serve_log = log_dir / "serve.log"
    proc, cluster_address = _spawn_banner(
        [
            "serve",
            "--port", "0",
            "--workers", "1",
            "--cluster-port", "0",
            "--data-dir", str(data_dir),
        ],
        serve_log,
        "repro cluster coordinator listening on",
    )
    nodes: list[subprocess.Popen] = []
    try:
        _, http_url = _spawn_banner_from_existing(serve_log, proc)
        host, cluster_port = _split_address(cluster_address)
        for i in range(3):
            nodes.append(
                _spawn(
                    ["cluster", "node", "--join", cluster_address,
                     "--node-id", f"smoke-{i}"],
                    log_dir / f"node-{i}.log",
                )
            )
        with ClusterClient(host, cluster_port) as cluster_client:
            _wait_nodes(cluster_client, 3)
            print(f"3 nodes joined {cluster_address}")

            reports = cluster_client.scan(
                JobSpec.from_dict(SPEC), RECORDS, timeout=300.0, options=options
            )
            assert _canon(reports) == _canon(_local_reports(options)), (
                "sharded scan diverged from the single-node scanner"
            )
            if options.get("index"):
                routes = [rep["routed"] for rep in reports]
                assert all(r in ("skip", "defer", "full") for r in routes), routes
                print(
                    f"sharded scan over {len(RECORDS)} records: bit-identical "
                    f"(index routing: {routes.count('full')} full / "
                    f"{routes.count('defer')} defer / {routes.count('skip')} skip)"
                )
            else:
                print(f"sharded scan over {len(RECORDS)} records: bit-identical")

            service = ServiceClient(http_url, timeout=30)
            payload = {
                "sequence": pseudo_titin(90, seed=3).text,
                "top_alignments": 4,
            }
            record = service.submit(payload)
            done = service.wait(record["id"], timeout=300)
            assert done["state"] == "done", done
            queued = [
                e for e in service.events(record["id"]) if e["event"] == "queued"
            ]
            assert queued and "route" not in queued[0], (
                f"submission was routed: {queued[0]}"
            )
            spec = JobSpec.from_dict(payload)
            expected = finder_for(spec).find(
                Sequence(spec.normalized_sequence(), "protein")
            )
            fetched = service.result(done["id"])
            got = [(a["r"], a["score"]) for a in fetched["top_alignments"]]
            want = [(a.r, a.score) for a in expected.top_alignments]
            assert got == want, f"spooled job diverged: {got} != {want}"
            print("POST /jobs ran on the local worker, result identical to library run")

            with urllib.request.urlopen(f"{http_url}/metrics", timeout=10) as resp:
                text = resp.read().decode("utf-8")
            samples = {
                line.split("{", 1)[0].split(" ", 1)[0]: float(line.rsplit(" ", 1)[1])
                for line in text.splitlines()
                if line and not line.startswith("#")
            }
            assert samples.get("repro_cluster_nodes_registered", 0) >= 3, (
                f"/metrics shows {samples.get('repro_cluster_nodes_registered')} "
                "registered nodes, expected >= 3"
            )
            for family in (
                "repro_cluster_leases_issued_total",
                "repro_cluster_shard_seconds_count",
                "repro_service_queue_depth",
            ):
                assert family in samples, f"/metrics missing {family}"
            print(f"/metrics: {samples['repro_cluster_nodes_registered']:.0f} nodes registered, cluster families present")
    finally:
        _stop(nodes)
        _stop([proc])
    tail = serve_log.read_text()
    assert "repro service stopped" in tail, tail
    print("service + coordinator shut down cleanly")


def _spawn_banner_from_existing(
    log_path: Path, proc: subprocess.Popen
) -> tuple[subprocess.Popen, str]:
    """The serve log carries a second banner: the HTTP listening line."""
    deadline = time.monotonic() + 30
    banner = "repro service listening on"
    while time.monotonic() < deadline:
        for line in log_path.read_text().splitlines():
            if banner in line:
                return proc, line.split(banner, 1)[1].split()[0]
        if proc.poll() is not None:
            raise RuntimeError(f"serve exited {proc.returncode}")
        time.sleep(0.1)
    raise RuntimeError("service HTTP banner never appeared")


def phase_failover(log_dir: Path, options: dict) -> None:
    """SIGKILL a node mid-lease: the scan must still be bit-identical."""
    coordinator, address = _spawn_banner(
        [
            "cluster", "coordinator",
            "--port", "0",
            "--scan-shard-size", "1",
            "--node-timeout", "2",
        ],
        log_dir / "coordinator.log",
        "repro cluster coordinator listening on",
    )
    host, port = _split_address(address)
    victim = None
    survivors: list[subprocess.Popen] = []
    try:
        # The victim sleeps 30s while *holding* each lease — it can
        # never finish a shard, so its work must be reassigned.
        victim = _spawn(
            ["cluster", "node", "--join", address, "--node-id", "victim"],
            log_dir / "node-victim.log",
            REPRO_CLUSTER_SHARD_DELAY="30",
        )
        with ClusterClient(host, port) as client:
            _wait_nodes(client, 1)
            job_id = client.submit_scan(
                JobSpec.from_dict(SPEC), RECORDS, options=options
            )
            deadline = time.monotonic() + 30
            while client.job_status(job_id)["in_flight"] == 0:
                if time.monotonic() > deadline:
                    raise RuntimeError("victim never took a lease")
                time.sleep(0.1)
            victim.kill()  # SIGKILL mid-shard: no goodbye, no cleanup
            victim.wait(timeout=10)
            print("victim node SIGKILLed while holding a shard lease")
            for i in range(2):
                survivors.append(
                    _spawn(
                        ["cluster", "node", "--join", address,
                         "--node-id", f"survivor-{i}"],
                        log_dir / f"node-survivor-{i}.log",
                    )
                )
            reports = client.wait_scan(job_id, timeout=300.0)
            assert _canon(reports) == _canon(_local_reports(options)), (
                "post-failover scan diverged from the single-node scanner"
            )
            stats = client.stats()
            assert stats["nodes"]["victim"]["alive"] is False
            released = client.job_status(job_id)["scheduler"]["leases_released"]
            assert released >= 1, "the victim's lease was never reassigned"
            print(
                f"scan completed bit-identical after failover "
                f"({released} lease(s) reassigned)"
            )
    finally:
        _stop([p for p in ([victim] + survivors) if p is not None])
        _stop([coordinator])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--log-dir",
        default=None,
        help="directory for coordinator/node logs (CI artifacts)",
    )
    parser.add_argument(
        "--index",
        action="store_true",
        help="run the sharded scans through the k-mer index tier "
        "(promise-ordered leases; bit-identity asserted against an "
        "indexed local scanner)",
    )
    args = parser.parse_args(argv)
    options = {"index": True} if args.index else {}
    with tempfile.TemporaryDirectory(prefix="repro-cluster-smoke-") as tmp:
        log_dir = Path(args.log_dir) if args.log_dir else Path(tmp) / "logs"
        log_dir.mkdir(parents=True, exist_ok=True)
        phase_service_cluster(log_dir, Path(tmp) / "data", options)
        phase_failover(log_dir, options)
    print("cluster smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
