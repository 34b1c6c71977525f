"""The worker node agent: join, heartbeat, pull leases, execute, report.

A node holds exactly **one** connection to its coordinator.  The main
loop is strict request/response — ``ready`` → (``lease`` | ``wait`` |
``shutdown``) — while a background thread sends one-way ``heartbeat``
frames over the *same* channel (sends are mutex-protected in
:class:`~repro.cluster.transport.Channel`, the "protect all MPI calls
with a mutex" workaround §4.3 describes).  Because heartbeats and
results never get responses, the main loop's recv only ever sees
replies to its own requests.  The coordinator holds a ``ready`` until
there is work, so the node never sleeps: it answers ``wait`` with the
next ``ready`` at once, like §4.3's slave blocked on a receive.

Shard execution goes through :mod:`repro.cluster.execution`, i.e. the
same ``finder_for``/engine path the service workers use, keeping the
bit-identity contract in one place.

**Drain.**  SIGTERM (and SIGINT) does not kill the node mid-shard: it
sets the drain flag, the agent finishes the lease it currently holds,
reports the result, sends a one-way ``goodbye`` and exits 0.  No
result is lost and the coordinator never has to fail over a drained
node's lease — SIGKILL remains the crash path the failover machinery
covers.
"""

from __future__ import annotations

import os
import signal
import socket as socket_mod
import threading
import time
from dataclasses import dataclass

from .execution import run_scan_shard
from . import protocol
from .transport import Channel, FrameError, connect

__all__ = ["NodeAgent", "NodeConfig", "node_main", "SHARD_DELAY_ENV"]

#: Test/ops knob: extra seconds slept while holding each lease, so a
#: shard can be made arbitrarily slow without changing its result (the
#: SIGKILL-failover tests use it to guarantee a mid-lease kill lands).
SHARD_DELAY_ENV = "REPRO_CLUSTER_SHARD_DELAY"


@dataclass
class NodeConfig:
    """How one node agent joins and behaves."""

    host: str
    port: int
    node_id: str = ""  # default: hostname-pid
    connect_attempts: int = 50
    connect_retry_delay: float = 0.1
    max_shards: int = 0  # exit after this many shards (0 = unbounded)


class NodeAgent:
    """One worker node process (usable in-thread from tests)."""

    def __init__(self, config: NodeConfig) -> None:
        self.config = config
        self.node_id = config.node_id or (
            f"{socket_mod.gethostname()}-{os.getpid()}"
        )
        self._stop = threading.Event()
        self._draining = threading.Event()
        self._channel: Channel | None = None
        self.shards_done = 0
        self.drained = False

    def stop(self) -> None:
        self._stop.set()

    def request_drain(self) -> None:
        """Finish the current shard (if any), say goodbye, exit cleanly.

        Signal-handler safe: only sets an event the work loop polls
        between frames.
        """
        self._draining.set()

    def run(self) -> int:
        """Join the coordinator and work until told to shut down."""
        channel = connect(
            self.config.host,
            self.config.port,
            attempts=self.config.connect_attempts,
            retry_delay=self.config.connect_retry_delay,
        )
        self._channel = channel
        delay = float(os.environ.get(SHARD_DELAY_ENV, "0") or 0)
        try:
            channel.send({
                "kind": protocol.HELLO,
                "role": "node",
                "node_id": self.node_id,
                "pid": os.getpid(),
                "capacity": 1,
            })
            welcome = channel.recv(timeout=10.0)
            if welcome.get("kind") != protocol.WELCOME:
                raise protocol.ProtocolError(f"expected welcome, got {welcome!r}")
            interval = float(welcome.get("heartbeat_interval", 1.0))
            heartbeat = threading.Thread(
                target=self._heartbeat_loop,
                args=(channel, interval),
                name=f"{self.node_id}-heartbeat",
                daemon=True,
            )
            heartbeat.start()
            self._work_loop(channel, delay)
        except (FrameError, TimeoutError, ConnectionError, OSError):
            return 1  # coordinator gone — nothing left to do here
        finally:
            self._stop.set()
            channel.close()
        return 0

    def _heartbeat_loop(self, channel: Channel, interval: float) -> None:
        while not self._stop.wait(interval):
            try:
                channel.send({
                    "kind": protocol.HEARTBEAT,
                    "node_id": self.node_id,
                })
            except (FrameError, OSError):
                return

    def _work_loop(self, channel: Channel, delay: float) -> None:
        while not self._stop.is_set():
            if self._draining.is_set():
                # Between leases, so nothing is in flight: announce the
                # clean exit and stop pulling work.
                self._say_goodbye(channel)
                return
            channel.send({"kind": protocol.READY, "node_id": self.node_id})
            reply = channel.recv(timeout=60.0)
            kind = reply.get("kind")
            if kind == protocol.SHUTDOWN:
                return
            if kind == protocol.WAIT:
                continue  # the coordinator already held this request: ask again now
            if kind != protocol.LEASE:
                raise protocol.ProtocolError(
                    f"expected lease/wait/shutdown, got {kind!r}"
                )
            self._execute_lease(channel, reply, delay)
            if self.config.max_shards and self.shards_done >= self.config.max_shards:
                return

    def _say_goodbye(self, channel: Channel) -> None:
        self.drained = True
        try:
            channel.send({"kind": protocol.GOODBYE, "node_id": self.node_id})
        except (FrameError, OSError):
            pass  # coordinator already gone; drain is still clean locally

    def _execute_lease(self, channel: Channel, lease: dict, delay: float) -> None:
        shard = lease["shard"]
        start = time.perf_counter()
        result: dict = {
            "kind": protocol.RESULT,
            "node_id": self.node_id,
            "job_id": lease["job_id"],
            "lease_id": lease["lease_id"],
        }
        try:
            if delay > 0:
                # Sleep while *holding* the lease so a test can SIGKILL
                # this process mid-shard deterministically.
                # repro-lint: allow[RPR013] REPRO_CLUSTER_SHARD_DELAY is a deliberate failover-test knob; off in production (defaults to 0)
                time.sleep(delay)
            if shard["kind"] == "scan":
                value = run_scan_shard(shard)
                result["records"] = value["n_records"]
            else:
                raise protocol.ProtocolError(
                    f"unknown shard kind {shard['kind']!r}"
                )
            result["ok"] = True
            result["value"] = value
        except Exception as exc:  # noqa: BLE001 - a shard must not kill the node
            result["ok"] = False
            result["error"] = f"{type(exc).__name__}: {exc}"
        result["elapsed"] = time.perf_counter() - start
        channel.send(result)
        self.shards_done += 1


def node_main(join: str, *, node_id: str = "", max_shards: int = 0) -> int:
    """CLI entry: ``repro cluster node --join host:port``.

    SIGTERM/SIGINT drain rather than kill: the node finishes the shard
    it holds, reports it, sends ``goodbye`` and exits 0.
    """
    host, _, port = join.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"--join expects host:port, got {join!r}")
    agent = NodeAgent(
        NodeConfig(host=host, port=int(port), node_id=node_id, max_shards=max_shards)
    )
    for signum in (signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, lambda *_: agent.request_drain())
    return agent.run()
