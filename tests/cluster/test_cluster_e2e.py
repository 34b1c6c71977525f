"""End-to-end cluster runs: bit-identity and SIGKILL lease failover.

The acceptance contract from the roadmap: a sharded multi-record scan
over a local 3-node cluster is **bit-identical** to the single-node
:class:`DatabaseScanner`, and stays bit-identical when one node is
SIGKILLed mid-shard (the lease reaper reassigns its work).
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cluster import (
    ClusterClient,
    Coordinator,
    CoordinatorConfig,
    NodeAgent,
    NodeConfig,
)
from repro.cluster.execution import merge_scan_reports
from repro.cluster.protocol import report_to_dict
from repro.cluster.shards import merge_shard_results
from repro.core.scan import DatabaseScanner
from repro.sequences import Sequence, pseudo_titin
from repro.service.protocol import JobSpec, finder_for

REPO = Path(__file__).resolve().parents[2]


def _records(n=7, length=48):
    """Small protein records, one deliberately below ``min_length``."""
    records = [
        {"id": f"rec{i:02d}", "sequence": pseudo_titin(length + 3 * i, seed=i).text}
        for i in range(n)
    ]
    records.insert(2, {"id": "runt", "sequence": "ACDEF"})  # skipped: < min_length
    return records


def _spec(**overrides):
    payload = {"sequence": "AA", "alphabet": "protein", "top_alignments": 3}
    payload.update(overrides)
    return JobSpec(**payload)


def _local_reports(spec, records, **options):
    scanner = DatabaseScanner(finder=finder_for(spec), **options)
    sequences = [
        Sequence(rec["sequence"].upper(), spec.alphabet, id=rec["id"])
        for rec in records
    ]
    return [report_to_dict(report) for report in scanner.scan(sequences)]


def _start_thread_nodes(coordinator, count, **config_overrides):
    agents, threads = [], []
    for i in range(count):
        agent = NodeAgent(
            NodeConfig(
                host="127.0.0.1",
                port=coordinator.port,
                node_id=f"tnode-{i}",
                **config_overrides,
            )
        )
        thread = threading.Thread(target=agent.run, daemon=True)
        thread.start()
        agents.append(agent)
        threads.append(thread)
    deadline = time.monotonic() + 10.0
    while coordinator.registry.alive_count() < count:
        if time.monotonic() > deadline:
            raise TimeoutError("nodes never registered")
        time.sleep(0.02)
    return agents, threads


@pytest.fixture()
def cluster():
    """A coordinator plus three in-thread node agents."""
    config = CoordinatorConfig(
        port=0,
        heartbeat_interval=0.2,
        node_timeout=2.0,
        lease_seconds=30.0,
        scan_shard_size=2,
        monitor_interval=0.05,
    )
    with Coordinator(config) as coordinator:
        agents, threads = _start_thread_nodes(coordinator, 3)
        try:
            yield coordinator
        finally:
            for agent in agents:
                agent.stop()


class TestScanBitIdentity:
    def test_three_node_scan_matches_single_node_scanner(self, cluster):
        spec = _spec()
        records = _records()
        job = cluster.submit_scan(spec, records)
        cluster.wait(job, timeout=60.0)
        assert job.state == "done"
        merged = merge_scan_reports(
            merge_shard_results(job.scheduler.results(), job.n_shards)
        )
        # Byte-for-byte: the JSON serialisations must be equal, not just close.
        assert json.dumps(merged, sort_keys=True) == json.dumps(
            _local_reports(spec, records), sort_keys=True
        )
        # The work actually spread: more than one node did shards.
        busy = [n for n in cluster.registry.snapshot().values() if n["shards_done"]]
        assert len(busy) >= 2

    def test_scan_options_travel_to_the_nodes(self, cluster):
        spec = _spec()
        records = _records(n=4)
        options = {"min_length": 40, "mask": True, "mask_window": 10}
        job = cluster.submit_scan(spec, records, options)
        cluster.wait(job, timeout=60.0)
        merged = merge_scan_reports(
            merge_shard_results(job.scheduler.results(), job.n_shards)
        )
        local = _local_reports(
            spec, records, min_length=40, mask=True, mask_window=10
        )
        assert json.dumps(merged, sort_keys=True) == json.dumps(local, sort_keys=True)


class TestClusterClient:
    def test_scan_stats_and_metrics_roundtrip(self, cluster):
        spec = _spec()
        records = _records(n=5)
        with ClusterClient("127.0.0.1", cluster.port) as client:
            reports = client.scan(spec, records, timeout=60.0)
            assert json.dumps(reports, sort_keys=True) == json.dumps(
                _local_reports(spec, records), sort_keys=True
            )
            stats = client.stats()
            assert stats["nodes_alive"] == 3
            assert len(stats["nodes"]) == 3
            text = client.metrics()
            assert "repro_cluster_nodes_alive 3" in text
            assert 'repro_cluster_results_total{status="ok"}' in text

    def test_unknown_job_is_a_protocol_error(self, cluster):
        from repro.cluster import ClusterError

        with ClusterClient("127.0.0.1", cluster.port) as client:
            with pytest.raises(ClusterError):
                client.job_status("cj-999999")


    def test_finished_jobs_are_forgotten_past_a_bound(self, cluster):
        """The coordinator used to keep every job (and its merged
        reports) for life.  It keeps the running ones plus the last
        ``FINISHED_JOBS_KEPT`` finished; the job a client just waited
        for still answers, an evicted id is the unknown-job error."""
        from repro.cluster import ClusterError
        from repro.cluster.coordinator import FINISHED_JOBS_KEPT

        spec = _spec()
        records = _records(n=1, length=30)
        with ClusterClient("127.0.0.1", cluster.port) as client:
            job_ids = []
            for _ in range(FINISHED_JOBS_KEPT + 4):
                job_ids.append(client.submit_scan(spec, records))
                client.wait_scan(job_ids[-1], timeout=60.0, poll=0.01)
                assert client.job_status(job_ids[-1])["state"] == "done"
            # Evicted when the next job registers: the bound, plus that job.
            assert len(client.stats()["jobs"]) == FINISHED_JOBS_KEPT + 1
            kept, evicted = job_ids[-FINISHED_JOBS_KEPT - 1], job_ids[-FINISHED_JOBS_KEPT - 2]
            assert client.job_status(kept)["state"] == "done"
            with pytest.raises(ClusterError, match="no such job"):
                client.job_status(evicted)


def _spawn_node(port, node_id, delay=0.0):
    """A ``repro cluster node`` process; ``delay`` seconds held per lease."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    if delay:
        env["REPRO_CLUSTER_SHARD_DELAY"] = str(delay)
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "cluster",
            "node",
            "--join",
            f"127.0.0.1:{port}",
            "--node-id",
            node_id,
        ],
        env=env,
        cwd=REPO,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


class TestFailover:
    def test_sigkilled_node_mid_shard_is_bit_identical(self):
        config = CoordinatorConfig(
            port=0,
            heartbeat_interval=0.2,
            node_timeout=1.5,
            lease_seconds=60.0,  # deadlines never fire: death detection does
            scan_shard_size=1,
            monitor_interval=0.05,
        )
        spec = _spec()
        records = _records(n=6)
        with Coordinator(config) as coordinator:
            # The victim sleeps 30s holding each lease: it will *never*
            # finish a shard, so every record it touches must be re-run.
            victim = _spawn_node(coordinator.port, "victim", delay=30.0)
            try:
                deadline = time.monotonic() + 15.0
                while coordinator.registry.alive_count() < 1:
                    if time.monotonic() > deadline:
                        raise TimeoutError("victim never registered")
                    time.sleep(0.02)
                job = coordinator.submit_scan(spec, records)
                while job.scheduler.in_flight() == 0:  # victim holds a lease
                    if time.monotonic() > deadline:
                        raise TimeoutError("victim never took a lease")
                    time.sleep(0.02)
                victim.kill()  # SIGKILL: no goodbye frame, no cleanup
                victim.wait(10)
                survivors, _ = _start_thread_nodes(coordinator, 2)
                try:
                    coordinator.wait(job, timeout=60.0)
                finally:
                    for agent in survivors:
                        agent.stop()
                assert job.state == "done"
                merged = merge_scan_reports(
                    merge_shard_results(job.scheduler.results(), job.n_shards)
                )
                assert json.dumps(merged, sort_keys=True) == json.dumps(
                    _local_reports(spec, records), sort_keys=True
                )
                stats = job.scheduler.stats()
                assert stats["leases_released"] >= 1  # the victim's lease
                assert coordinator.registry.is_alive("victim") is False
            finally:
                if victim.poll() is None:
                    victim.kill()
                    victim.wait(10)

    def test_node_crash_with_no_survivors_then_late_join(self):
        """The job survives a window with zero alive nodes."""
        config = CoordinatorConfig(
            port=0,
            heartbeat_interval=0.1,
            node_timeout=0.8,
            scan_shard_size=2,
            monitor_interval=0.05,
        )
        spec = _spec()
        records = _records(n=4)
        with Coordinator(config) as coordinator:
            victim = _spawn_node(coordinator.port, "victim", delay=30.0)
            try:
                deadline = time.monotonic() + 15.0
                while coordinator.registry.alive_count() < 1:
                    if time.monotonic() > deadline:
                        raise TimeoutError("victim never registered")
                    time.sleep(0.02)
                job = coordinator.submit_scan(spec, records)
                while job.scheduler.in_flight() == 0:
                    if time.monotonic() > deadline:
                        raise TimeoutError("victim never took a lease")
                    time.sleep(0.02)
                victim.kill()
                victim.wait(10)
                # Let the monitor notice the death before anyone else joins.
                while coordinator.registry.alive_count() > 0:
                    if time.monotonic() > deadline:
                        raise TimeoutError("victim never expired")
                    time.sleep(0.02)
                agents, _ = _start_thread_nodes(coordinator, 1)
                try:
                    coordinator.wait(job, timeout=60.0)
                finally:
                    for agent in agents:
                        agent.stop()
                assert job.state == "done"
            finally:
                if victim.poll() is None:
                    victim.kill()
                    victim.wait(10)
