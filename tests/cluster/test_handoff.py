"""The hand-off: work reaches an idle node, and a finished scan its
waiter, as soon as it exists — no side sleeps on a clock.

A node's ``ready`` parks on the coordinator until a lease can be made;
``wait_scan`` blocks on the coordinator until the job ends.  Every
check here synchronises on what the coordinator reports (parks, lease
replies, finished jobs, lost nodes) and bounds the hand-off latency at
a few tens of milliseconds, which a 0.2 s poll would miss.
"""

import queue
import struct
import sys
import threading
import time

import pytest

from repro.cluster import (
    ClusterClient,
    ClusterError,
    Coordinator,
    CoordinatorConfig,
    NodeAgent,
    NodeConfig,
)
from repro.cluster import protocol
from repro.cluster.node import SHARD_DELAY_ENV
from repro.cluster.transport import connect
from repro.sequences import pseudo_titin

from .test_cluster_e2e import _spawn_node, _spec

#: Longest a hand-off may take: a notify, one frame, a thread switch.
HANDOFF_S = 0.05

#: Every queue read in this module gives up after this long.
PATIENCE_S = 30.0


def _config(**overrides):
    defaults = dict(
        port=0,
        heartbeat_interval=2.0,  # the park's cap: far above every bound here
        node_timeout=10.0,
        lease_seconds=60.0,
        scan_shard_size=1,
        monitor_interval=0.05,
    )
    defaults.update(overrides)
    return CoordinatorConfig(**defaults)


def _records(n=1):
    return [
        {"id": f"rec{i}", "sequence": pseudo_titin(40, seed=i).text} for i in range(n)
    ]


#: A record a node cannot read: its shard fails on every attempt.
POISON = {"id": "poison"}


class _Observed(Coordinator):
    """A coordinator that reports what it does on queues a test blocks on."""

    def __init__(self, config):
        super().__init__(config)
        self.parks = queue.SimpleQueue()  # one item per parked wait
        self.replies = queue.SimpleQueue()  # (node_id, reply kind, monotonic)
        self.finished = queue.SimpleQueue()  # (job_id, state, monotonic)
        self.lost = queue.SimpleQueue()  # node ids whose leases were released
        wait = self._work.wait

        def park(timeout=None):
            self.parks.put(time.monotonic())
            return wait(timeout)

        self._work.wait = park

    def _lease_for(self, node_id):
        reply = super()._lease_for(node_id)
        self.replies.put((node_id, reply["kind"], time.monotonic()))
        return reply

    def _finish(self, job, error=None):
        super()._finish(job, error)
        self.finished.put((job.job_id, job.state, time.monotonic()))

    def _release_node_leases(self, node_id):
        self.lost.put(node_id)
        super()._release_node_leases(node_id)

    def next_reply(self):
        return self.replies.get(timeout=PATIENCE_S)


def _start_node(coordinator, node_id):
    """An in-thread node; returns (agent, thread, exit codes)."""
    agent = NodeAgent(
        NodeConfig(host="127.0.0.1", port=coordinator.port, node_id=node_id)
    )
    codes = []
    thread = threading.Thread(target=lambda: codes.append(agent.run()), daemon=True)
    thread.start()
    return agent, thread, codes


class TestParkedLease:
    def test_parked_node_is_leased_right_after_submit(self):
        with _Observed(_config()) as coordinator:
            agent, _, _ = _start_node(coordinator, "idle")
            try:
                coordinator.parks.get(timeout=PATIENCE_S)
                submitted = time.monotonic()
                job = coordinator.submit_scan(_spec(), _records())
                node_id, kind, at = coordinator.next_reply()
                assert (node_id, kind) == ("idle", "lease")
                assert at - submitted < HANDOFF_S
                coordinator.wait(job, timeout=PATIENCE_S)
                assert job.state == "done"
            finally:
                agent.stop()

    def test_backed_off_shard_is_released_at_its_not_before(self):
        # Attempt 1 backs off for 0.05-0.1 s (full jitter over 0.1 s);
        # the park's cap (2 s) and a 0.2 s poll are both far outside.
        config = _config(backoff_base=0.1, max_attempts=2)
        with _Observed(config) as coordinator:
            agent, _, _ = _start_node(coordinator, "n")
            try:
                job = coordinator.submit_scan(_spec(), [POISON])
                first = coordinator.next_reply()
                second = coordinator.next_reply()
                assert [first[1], second[1]] == ["lease", "lease"]
                gap = second[2] - first[2]
                assert config.backoff_base / 2 <= gap < config.backoff_base + HANDOFF_S
                coordinator.wait(job, timeout=PATIENCE_S)
                assert job.state == "failed"  # both attempts spent
            finally:
                agent.stop()

    def test_killed_nodes_shard_goes_to_the_parked_peer(self):
        # One lease per shard (no steal), and a node timeout far away:
        # only the connection drop can free the victim's shard.
        config = _config(max_duplicates=1)
        with _Observed(config) as coordinator:
            victim = _spawn_node(coordinator.port, "victim", delay=30.0)
            peer = None
            try:
                coordinator.parks.get(timeout=PATIENCE_S)  # the victim parked
                job = coordinator.submit_scan(_spec(), _records())
                assert coordinator.next_reply()[:2] == ("victim", "lease")
                peer, _, _ = _start_node(coordinator, "peer")
                coordinator.parks.get(timeout=PATIENCE_S)  # the peer parked
                killed = time.monotonic()
                victim.kill()
                assert coordinator.lost.get(timeout=PATIENCE_S) == "victim"
                node_id, kind, at = coordinator.next_reply()
                assert (node_id, kind) == ("peer", "lease")
                assert at - killed < HANDOFF_S
                coordinator.wait(job, timeout=PATIENCE_S)
                assert job.state == "done"
                assert job.scheduler.stats()["leases_released"] == 1
            finally:
                if peer is not None:
                    peer.stop()
                victim.kill()
                victim.wait(10)

    def test_stop_answers_parked_requests_with_shutdown(self):
        coordinator = _Observed(_config()).start()
        agent, thread, codes = _start_node(coordinator, "idle")
        coordinator.parks.get(timeout=PATIENCE_S)
        stopping = time.monotonic()
        stopper = threading.Thread(target=coordinator.stop)
        stopper.start()
        thread.join(PATIENCE_S)
        assert time.monotonic() - stopping < HANDOFF_S
        assert codes == [0]  # a clean shutdown reply, not a dropped link
        assert not agent.drained
        assert coordinator.next_reply()[:2] == ("idle", "shutdown")
        stopper.join(PATIENCE_S)

    def test_parked_node_is_never_expired(self):
        # The park is capped at one heartbeat interval, so the node's
        # queued heartbeats are read well inside the node timeout.
        config = _config(heartbeat_interval=0.1, node_timeout=0.35)
        with _Observed(config) as coordinator:
            agent, _, _ = _start_node(coordinator, "idle")
            try:
                kinds = []
                started = time.monotonic()
                while time.monotonic() - started < 2.0:
                    kinds.append(coordinator.next_reply()[1])
                assert set(kinds) == {"wait"}
                assert len(kinds) >= 10  # it was parked, then asked again
                assert coordinator.lost.empty()
                assert coordinator.registry.is_alive("idle")
            finally:
                agent.stop()


class TestWaitScan:
    def test_returns_right_after_the_last_result(self, monkeypatch):
        # The shard outlasts the first status request, so a polling
        # waiter would sleep through the finish.
        monkeypatch.setenv(SHARD_DELAY_ENV, "0.3")
        with _Observed(_config()) as coordinator:
            agent, _, _ = _start_node(coordinator, "n")
            try:
                with ClusterClient("127.0.0.1", coordinator.port) as client:
                    job_id = client.submit_scan(_spec(), _records())
                    reports = client.wait_scan(job_id, timeout=PATIENCE_S, poll=0.5)
                    returned = time.monotonic()
                finished_id, state, at = coordinator.finished.get(timeout=PATIENCE_S)
                assert (finished_id, state) == (job_id, "done")
                assert returned - at < HANDOFF_S
                assert [r["id"] for r in reports] == ["rec0"]
            finally:
                agent.stop()

    def test_times_out_at_its_deadline(self):
        with _Observed(_config()) as coordinator:  # no node: never finishes
            with ClusterClient("127.0.0.1", coordinator.port) as client:
                job_id = client.submit_scan(_spec(), _records())
                started = time.monotonic()
                with pytest.raises(TimeoutError):
                    client.wait_scan(job_id, timeout=0.2)
                assert 0.2 <= time.monotonic() - started < 0.2 + HANDOFF_S

    def test_failed_job_raises(self):
        with _Observed(_config(max_attempts=1)) as coordinator:
            agent, _, _ = _start_node(coordinator, "n")
            try:
                with ClusterClient("127.0.0.1", coordinator.port) as client:
                    job_id = client.submit_scan(_spec(), [POISON])
                    with pytest.raises(ClusterError, match="KeyError"):
                        client.wait_scan(job_id, timeout=PATIENCE_S)
            finally:
                agent.stop()


class TestStress:
    def test_no_wake_up_is_lost_under_thread_churn(self):
        """More nodes than cores and a tiny switch interval: each job
        reaches the parked nodes through a notify, never the 5 s cap."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with Coordinator(_config(heartbeat_interval=5.0)) as coordinator:
                agents = [_start_node(coordinator, f"n{i}")[0] for i in range(6)]
                try:
                    for _ in range(20):
                        job = coordinator.submit_scan(_spec(), _records(3))
                        coordinator.wait(job, timeout=4.0)
                        assert job.state == "done"
                finally:
                    for agent in agents:
                        agent.stop()
        finally:
            sys.setswitchinterval(interval)


class TestLeaseStamps:
    def test_failed_job_drops_the_stamps_of_leases_still_out(self):
        """A job that fails while another node holds one of its leases
        must not keep that lease's issue stamp: the node may never
        report (here it is SIGKILLed), and the map would grow forever."""
        with _Observed(_config(max_attempts=1)) as coordinator:
            victim = _spawn_node(coordinator.port, "victim", delay=30.0)
            agent = None
            try:
                coordinator.parks.get(timeout=PATIENCE_S)  # the victim parked
                # Shard 0 (good) goes first, to the victim; shard 1 fails.
                job = coordinator.submit_scan(_spec(), _records() + [POISON])
                assert coordinator.next_reply()[:2] == ("victim", "lease")
                agent, _, _ = _start_node(coordinator, "n")
                coordinator.wait(job, timeout=PATIENCE_S)
                assert job.state == "failed"
                victim.kill()
                assert coordinator.lost.get(timeout=PATIENCE_S) == "victim"
                assert [k for k in coordinator._lease_issued_at if k[0] == job.job_id] == []
            finally:
                if agent is not None:
                    agent.stop()
                victim.kill()
                victim.wait(10)


class TestMalformedFrame:
    @pytest.mark.parametrize("body", [b'{"__nd__":{}}', b'{"__tuple__":5}', b"[1]"])
    def test_a_garbled_frame_releases_the_nodes_lease_at_once(self, body):
        # The node timeout (10 s) is far away: only the fast failover
        # path can free the shard within the bound.
        with _Observed(_config(max_duplicates=1)) as coordinator:
            rogue = connect("127.0.0.1", coordinator.port, timeout=PATIENCE_S)
            peer = None
            try:
                rogue.send({"kind": protocol.HELLO, "role": "node", "node_id": "rogue"})
                assert rogue.recv()["kind"] == protocol.WELCOME
                job = coordinator.submit_scan(_spec(), _records())
                rogue.send({"kind": protocol.READY})
                assert rogue.recv()["kind"] == protocol.LEASE
                garbled = time.monotonic()
                rogue._sock.sendall(struct.pack(">I", len(body)) + body)
                assert coordinator.lost.get(timeout=PATIENCE_S) == "rogue"
                assert time.monotonic() - garbled < 1.0
                peer, _, _ = _start_node(coordinator, "peer")
                coordinator.wait(job, timeout=PATIENCE_S)
                assert job.state == "done"
            finally:
                if peer is not None:
                    peer.stop()
                rogue.close()
