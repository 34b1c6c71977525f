"""Message-passing substrate (MPI substitute).

The paper distributes work with MPI over Myrinet.  This module
provides the small MPI-like core the master/slave protocol needs —
ranked processes, tagged point-to-point ``send``/``recv`` with source
filtering — over the framed TCP channels of
:mod:`repro.cluster.transport`, so the distributed driver runs for real
on loopback sockets or across machines.

Design notes mirroring §4.3:

* the topology is a star around rank 0, the only shape the master/slave
  protocol uses (slaves never talk to each other): the hub holds one
  channel per peer, every other rank a single channel to the hub;
* message order between a fixed (sender, receiver) pair is FIFO — each
  pair shares one TCP connection, drained by one reader thread into the
  receiver's inbox — the property the master relies on so that
  override-triangle updates reach a slave *before* any task that
  assumes them;
* ``recv`` buffers non-matching messages, the usual MPI envelope
  matching semantics;
* there is no interrupt-on-message facility (the paper's complaint
  about MPI), which is exactly why the master rank does nothing but
  service the queue.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_mod
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from ..cluster.transport import (
    DEFAULT_TIMEOUT,
    Channel,
    FrameError,
    Listener,
    connect,
)

__all__ = ["ANY", "Message", "Communicator", "World"]

#: Wildcard for ``recv`` source/tag filters (MPI_ANY_SOURCE / MPI_ANY_TAG).
ANY = -1

_LOOPBACK = "127.0.0.1"


@dataclass(frozen=True)
class Message:
    """A received message envelope."""

    source: int
    tag: int
    payload: Any


class Communicator:
    """One rank's endpoint: an inbox fed by its channels, and their send side."""

    def __init__(self, rank: int, size: int, channels: dict[int, Channel]) -> None:
        self.rank = rank
        self.size = size
        self._channels = channels
        self._pending: list[Message] = []
        self._inbox: queue_mod.Queue[Message] = queue_mod.Queue()
        self._readers = [
            threading.Thread(
                target=self._drain,
                args=(channel,),
                name=f"msgpass-{rank}-reader-{peer}",
                daemon=True,
            )
            for peer, channel in channels.items()
        ]
        for reader in self._readers:
            reader.start()

    def _drain(self, channel: Channel) -> None:
        while True:
            try:
                frame = channel.recv(timeout=3600.0)
            except (FrameError, TimeoutError, OSError):
                return  # peer is gone; recv() reports the silence as a timeout
            self._inbox.put(Message(frame["source"], frame["tag"], frame["payload"]))

    def send(self, payload: Any, dest: int, tag: int = 0) -> None:
        """Deliver ``payload`` to rank ``dest`` (buffered by the kernel)."""
        if not 0 <= dest < self.size:
            raise ValueError(f"destination rank {dest} outside 0..{self.size - 1}")
        if dest == self.rank:
            self._inbox.put(Message(self.rank, tag, payload))
            return
        channel = self._channels.get(dest)
        if channel is None:
            raise ValueError(
                f"rank {self.rank} has no channel to rank {dest} "
                "(communicators are a star around rank 0)"
            )
        channel.send({"source": self.rank, "tag": tag, "payload": payload})

    def recv(
        self, source: int = ANY, tag: int = ANY, timeout: float | None = 120.0
    ) -> Message:
        """Blocking receive with envelope matching.

        Non-matching messages are buffered and delivered by later calls
        in arrival order.  ``timeout`` guards against protocol bugs —
        a silent distributed hang is worse than a loud failure.
        """
        for idx, msg in enumerate(self._pending):
            if self._matches(msg, source, tag):
                return self._pending.pop(idx)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                msg = self._inbox.get(
                    timeout=None
                    if deadline is None
                    else max(0.0, deadline - time.monotonic())
                )
            except queue_mod.Empty:
                raise TimeoutError(
                    f"rank {self.rank}: no message matching source={source} "
                    f"tag={tag} within {timeout}s"
                ) from None
            if self._matches(msg, source, tag):
                return msg
            self._pending.append(msg)

    def bcast_from(self, payload: Any, tag: int = 0) -> None:
        """Send ``payload`` to every connected peer (a flat broadcast)."""
        for dest in self._channels:
            self.send(payload, dest, tag)

    def close(self) -> None:
        """Close every channel and wait for its reader: closing wakes a
        blocked ``recv``, so no reader outlives its communicator."""
        for channel in self._channels.values():
            channel.close()
        for reader in self._readers:
            reader.join(timeout=DEFAULT_TIMEOUT)

    @staticmethod
    def _matches(msg: Message, source: int, tag: int) -> bool:
        return (source == ANY or msg.source == source) and (
            tag == ANY or msg.tag == tag
        )


class World:
    """A set of ranked processes: rank 0 in the caller, the rest spawned.

    Ranks ``1..size-1`` are forked processes that connect back to the
    caller over loopback sockets.  Usage::

        with World(n_ranks) as world:
            world.start(entry, payload)  # runs entry(comm, payload) on ranks 1..n-1
            comm = world.comm            # rank 0's communicator
            ...                          # drive the protocol; entry must return
    """

    def __init__(self, size: int) -> None:
        if size < 1:
            raise ValueError("world size must be >= 1")
        self.size = size
        self._listener = Listener(_LOOPBACK, 0)
        self._procs: list[mp.process.BaseProcess] = []
        self.comm: Communicator | None = None

    def start(
        self, entry: Callable[[Communicator, Any], None], payload: Any
    ) -> None:
        """Spawn ranks ``1..size-1`` and wire up the hub communicator."""
        if self.comm is not None:
            raise RuntimeError("world already started")
        ctx = mp.get_context("fork")
        for rank in range(1, self.size):
            proc = ctx.Process(
                target=_child_main,
                args=(rank, self.size, self._listener.port, entry, payload),
                name=f"repro-rank-{rank}",
                daemon=True,
            )
            proc.start()
            self._procs.append(proc)
        channels: dict[int, Channel] = {}
        deadline = time.monotonic() + DEFAULT_TIMEOUT
        while len(channels) < self.size - 1:
            channel = self._listener.accept(
                timeout=max(0.1, deadline - time.monotonic())
            )
            channels[int(channel.recv(timeout=DEFAULT_TIMEOUT)["rank"])] = channel
        self.comm = Communicator(0, self.size, channels)

    def shutdown(self, timeout: float = 30.0) -> None:
        """Join all children; terminate stragglers after ``timeout``."""
        for proc in self._procs:
            proc.join(timeout=timeout)
            if proc.is_alive():  # pragma: no cover - protocol bug escape hatch
                proc.terminate()
                proc.join(timeout=5.0)
        self._procs.clear()
        if self.comm is not None:
            self.comm.close()
        self._listener.close()

    def __enter__(self) -> "World":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def _child_main(
    rank: int,
    size: int,
    port: int,
    entry: Callable[[Communicator, Any], None],
    payload: Any,
) -> None:
    channel = connect(_LOOPBACK, port, attempts=50, retry_delay=0.05)
    channel.send({"rank": rank})
    comm = Communicator(rank, size, {0: channel})
    try:
        entry(comm, payload)
    finally:
        comm.close()
