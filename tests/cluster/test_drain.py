"""Drain-on-SIGTERM: a draining node finishes its shard, loses nothing.

The contract from the gateway issue: ``repro cluster node`` receiving
SIGTERM stops taking new leases, finishes the shard it holds, reports
the result, sends a one-way ``goodbye`` and exits 0 — so rolling a
node never costs a lease timeout or a recomputed shard.  SIGKILL (no
goodbye) stays the crash path ``test_cluster_e2e`` covers.
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

from repro.cluster import Coordinator, CoordinatorConfig, NodeAgent, NodeConfig
from repro.cluster.execution import merge_scan_reports
from repro.cluster.node import SHARD_DELAY_ENV
from repro.cluster.shards import merge_shard_results
from tests.cluster.test_cluster_e2e import (
    _local_reports,
    _records,
    _spec,
    _start_thread_nodes,
)

REPO = Path(__file__).resolve().parents[2]


def _config(**overrides):
    defaults = dict(
        port=0,
        heartbeat_interval=0.2,
        node_timeout=5.0,
        lease_seconds=60.0,  # deadlines never fire: drain must not need them
        scan_shard_size=1,
        monitor_interval=0.05,
    )
    defaults.update(overrides)
    return CoordinatorConfig(**defaults)


class TestInThreadDrain:
    def test_idle_node_drains_cleanly(self):
        config = _config()
        with Coordinator(config) as coordinator:
            agent = NodeAgent(
                NodeConfig(host="127.0.0.1", port=coordinator.port, node_id="idle")
            )
            exit_codes = []
            thread = threading.Thread(
                target=lambda: exit_codes.append(agent.run()), daemon=True
            )
            thread.start()
            deadline = time.monotonic() + 10.0
            while coordinator.registry.alive_count() < 1:
                assert time.monotonic() < deadline, "node never registered"
                time.sleep(0.02)
            drain_started = time.monotonic()
            agent.request_drain()
            thread.join(10)
            # The node's pending ``ready`` is parked on the coordinator
            # for at most one heartbeat interval; then it says goodbye.
            assert time.monotonic() - drain_started < config.heartbeat_interval + 0.2
            assert not thread.is_alive()
            assert exit_codes == [0]
            assert agent.drained
            # goodbye is one-way: give the coordinator a beat to log it.
            deadline = time.monotonic() + 10.0
            while coordinator.registry.drained_count() < 1:
                assert time.monotonic() < deadline, "goodbye never processed"
                time.sleep(0.02)
            assert coordinator.stats()["nodes_drained"] == 1

    def test_drain_mid_job_loses_no_results(self, monkeypatch):
        """Drain one of two nodes while shards are in flight: the job
        still finishes bit-identical to the single-node scanner and the
        drained node takes no further leases."""
        monkeypatch.setenv(SHARD_DELAY_ENV, "0.2")  # every lease is slow
        spec = _spec()
        records = _records(n=6)
        with Coordinator(_config()) as coordinator:
            agents, threads = _start_thread_nodes(coordinator, 2)
            try:
                job = coordinator.submit_scan(spec, records)
                deadline = time.monotonic() + 15.0
                while job.scheduler.in_flight() == 0:
                    assert time.monotonic() < deadline, "no lease ever issued"
                    time.sleep(0.02)
                victim = agents[0]
                shards_at_drain = victim.shards_done
                victim.request_drain()
                coordinator.wait(job, timeout=60.0)
                assert job.state == "done"
                # At most the in-flight shard lands after the drain call.
                assert victim.shards_done <= shards_at_drain + 1
                threads[0].join(10)
                assert victim.drained
                while coordinator.registry.drained_count() < 1:
                    assert time.monotonic() < deadline, "goodbye never processed"
                    time.sleep(0.02)
                # Zero result loss: bit-identical to the local scanner.
                merged = merge_scan_reports(
                    merge_shard_results(job.scheduler.results(), job.n_shards)
                )
                assert json.dumps(merged, sort_keys=True) == json.dumps(
                    _local_reports(spec, records), sort_keys=True
                )
                # Drain never tripped the failover machinery.
                assert job.scheduler.stats()["leases_released"] == 0
            finally:
                for agent in agents:
                    agent.stop()

    def test_drained_is_distinct_from_dead_in_snapshot(self):
        with Coordinator(_config(node_timeout=2.0)) as coordinator:
            agents, threads = _start_thread_nodes(coordinator, 2)
            try:
                agents[0].request_drain()
                threads[0].join(10)
                deadline = time.monotonic() + 10.0
                while coordinator.registry.drained_count() < 1:
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                snapshot = coordinator.registry.snapshot()
                assert snapshot["tnode-0"]["drained"] is True
                assert snapshot["tnode-1"]["drained"] is False
                metrics = coordinator.render_metrics()
                assert "repro_cluster_nodes_drained_total 1" in metrics
            finally:
                for agent in agents:
                    agent.stop()


class TestAutoscaleSignals:
    def test_autoscale_reports_backlog_by_tenant(self, monkeypatch):
        monkeypatch.setenv(SHARD_DELAY_ENV, "0.3")
        spec = _spec()
        with Coordinator(_config()) as coordinator:
            agents, _ = _start_thread_nodes(coordinator, 1)
            try:
                job_a = coordinator.submit_scan(spec, _records(n=4), tenant="acme")
                job_b = coordinator.submit_scan(spec, _records(n=2))
                signals = coordinator.autoscale()
                assert signals["queue_depth"] >= 1
                assert signals["nodes_alive"] == 1
                assert "acme" in signals["tenant_backlog"]
                assert "public" in signals["tenant_backlog"]
                stats = coordinator.stats()
                assert stats["autoscale"]["queue_depth"] >= 1
                busy = coordinator.render_metrics()
                assert 'repro_cluster_tenant_backlog{tenant="acme"}' in busy
                coordinator.wait(job_a, timeout=60.0)
                coordinator.wait(job_b, timeout=60.0)
                # Lease latency is an EWMA of real observations.
                assert coordinator.autoscale()["lease_latency"] > 0.0
                metrics = coordinator.render_metrics()
                assert "repro_cluster_queue_depth 0" in metrics
                assert "repro_cluster_lease_latency_seconds" in metrics
                # Drained backlog reads 0, not the stale last value.
                assert 'repro_cluster_tenant_backlog{tenant="acme"} 0' in metrics
            finally:
                for agent in agents:
                    agent.stop()


class TestSigtermProcess:
    def test_sigterm_drains_the_node_process(self):
        """The real signal path: ``repro cluster node`` under SIGTERM
        finishes its shard, exits 0, and the job completes on a peer."""
        spec = _spec()
        records = _records(n=4)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        env[SHARD_DELAY_ENV] = "0.5"
        with Coordinator(_config()) as coordinator:
            proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "cluster", "node",
                    "--join", f"127.0.0.1:{coordinator.port}",
                    "--node-id", "roller",
                ],
                env=env,
                cwd=REPO,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            try:
                deadline = time.monotonic() + 15.0
                while coordinator.registry.alive_count() < 1:
                    assert time.monotonic() < deadline, "node never registered"
                    time.sleep(0.02)
                job = coordinator.submit_scan(spec, records)
                while job.scheduler.in_flight() == 0:
                    assert time.monotonic() < deadline, "node never took a lease"
                    time.sleep(0.02)
                proc.send_signal(signal.SIGTERM)  # mid-shard, not mid-frame
                assert proc.wait(30) == 0
                deadline = time.monotonic() + 10.0
                while coordinator.registry.drained_count() < 1:
                    assert time.monotonic() < deadline, "goodbye never processed"
                    time.sleep(0.02)
                # A fresh in-thread node finishes what the roller left.
                survivors, _ = _start_thread_nodes(coordinator, 1)
                try:
                    coordinator.wait(job, timeout=60.0)
                finally:
                    for agent in survivors:
                        agent.stop()
                assert job.state == "done"
                assert job.scheduler.stats()["leases_released"] == 0
                merged = merge_scan_reports(
                    merge_shard_results(job.scheduler.results(), job.n_shards)
                )
                assert json.dumps(merged, sort_keys=True) == json.dumps(
                    _local_reports(spec, records), sort_keys=True
                )
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(10)
