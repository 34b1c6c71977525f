"""Tests for the message-passing substrate."""

import socket
import threading

import numpy as np
import pytest

from repro.cluster.transport import Channel
from repro.parallel import ANY, Communicator, World


def _echo(comm, payload):
    """Child entry: echo everything back with tag+1 until 'stop'."""
    while True:
        msg = comm.recv(source=0, timeout=30.0)
        if isinstance(msg.payload, str) and msg.payload == "stop":
            return
        comm.send(msg.payload, 0, msg.tag + 1)


def _worker_sum(comm, payload):
    msg = comm.recv(source=0, timeout=30.0)
    comm.send(sum(msg.payload), 0)


class TestCommunicatorLocal:
    """Single-rank loopback semantics (no processes, no sockets)."""

    def test_self_send_recv(self):
        comm = Communicator(0, 1, {})
        comm.send("hello", 0, tag=7)
        msg = comm.recv(timeout=5.0)
        assert (msg.source, msg.tag, msg.payload) == (0, 7, "hello")

    def test_tag_filtering_buffers_mismatches(self):
        comm = Communicator(0, 1, {})
        comm.send("a", 0, tag=1)
        comm.send("b", 0, tag=2)
        assert comm.recv(tag=2, timeout=5.0).payload == "b"
        assert comm.recv(tag=1, timeout=5.0).payload == "a"

    def test_invalid_destination(self):
        comm = Communicator(0, 1, {})
        with pytest.raises(ValueError):
            comm.send("x", 5)

    def test_timeout_raises(self):
        comm = Communicator(0, 1, {})
        with pytest.raises(TimeoutError):
            comm.recv(timeout=0.05)

    def test_close_stops_the_readers(self):
        """A reader blocked on a live peer is gone once ``close`` returns."""
        ours, theirs = socket.socketpair()
        try:
            comm = Communicator(0, 2, {1: Channel(ours)})
            comm.close()
            names = [thread.name for thread in threading.enumerate()]
            assert not [name for name in names if name.startswith("msgpass-")]
        finally:
            theirs.close()


class TestWorld:
    def test_world_size_validation(self):
        with pytest.raises(ValueError):
            World(0)

    def test_echo_roundtrip(self):
        with World(2) as world:
            world.start(_echo, None)
            world.comm.send({"x": 1}, 1, tag=3)
            msg = world.comm.recv(source=1, timeout=30.0)
            assert msg.payload == {"x": 1}
            assert msg.tag == 4
            world.comm.send("stop", 1)

    def test_numpy_payloads(self):
        with World(2) as world:
            world.start(_echo, None)
            data = np.arange(10, dtype=np.float64)
            world.comm.send(data, 1)
            back = world.comm.recv(source=1, timeout=30.0).payload
            assert np.array_equal(back, data)
            world.comm.send("stop", 1)

    def test_multiple_slaves(self):
        with World(4) as world:
            world.start(_worker_sum, None)
            for rank in (1, 2, 3):
                world.comm.send([rank, rank], rank)
            totals = sorted(
                world.comm.recv(timeout=30.0).payload for _ in range(3)
            )
            assert totals == [2, 4, 6]

    def test_double_start_rejected(self):
        world = World(2)
        try:
            world.start(_echo, None)
            with pytest.raises(RuntimeError):
                world.start(_echo, None)
            world.comm.send("stop", 1)
        finally:
            world.shutdown()

    def test_source_wildcard(self):
        with World(3) as world:
            world.start(_worker_sum, None)
            world.comm.send([10], 1)
            world.comm.send([20], 2)
            got = {world.comm.recv(source=ANY, timeout=30.0).source for _ in range(2)}
            assert got == {1, 2}
