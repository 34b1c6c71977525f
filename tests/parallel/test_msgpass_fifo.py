"""Envelope semantics under concurrent senders.

§4.3's master/slave protocol relies on exactly two properties of the
message layer: messages from one sender arrive in the order sent
(FIFO per (sender, receiver) pair), and ``recv`` filtering by source
or tag buffers — never drops or reorders — non-matching envelopes.
"""

import threading

import pytest

from repro.cluster.transport import Listener, connect
from repro.parallel import ANY, Communicator

N_SENDERS = 2  # ranks 1..N_SENDERS send to rank 0
PER_SENDER = 50


@pytest.fixture()
def world():
    """A hub and ``N_SENDERS`` peers, wired over loopback sockets."""
    listener = Listener("127.0.0.1", 0, timeout=5.0)
    hub_channels, peer_channels = {}, []

    def _accept_all():
        for peer in range(1, N_SENDERS + 1):
            hub_channels[peer] = listener.accept(timeout=5.0)

    thread = threading.Thread(target=_accept_all)
    thread.start()
    for _ in range(N_SENDERS):
        peer_channels.append(connect("127.0.0.1", listener.port, timeout=5.0))
    thread.join(5)
    listener.close()
    comms = [Communicator(0, N_SENDERS + 1, hub_channels)]
    for rank, channel in enumerate(peer_channels, start=1):
        comms.append(Communicator(rank, N_SENDERS + 1, {0: channel}))
    try:
        yield comms
    finally:
        for comm in comms:
            comm.close()


def _blast(comm, tag=0):
    """Send ``PER_SENDER`` numbered messages from ``comm`` to rank 0."""
    for i in range(PER_SENDER):
        comm.send({"n": i, "from": comm.rank}, 0, tag=tag)


def test_fifo_per_sender_under_concurrent_senders(world):
    hub, senders = world[0], world[1:]
    threads = [threading.Thread(target=_blast, args=(c,)) for c in senders]
    for thread in threads:
        thread.start()
    seen = {comm.rank: [] for comm in senders}
    for _ in range(N_SENDERS * PER_SENDER):
        message = hub.recv(source=ANY, tag=ANY, timeout=30.0)
        seen[message.source].append(message.payload["n"])
    for thread in threads:
        thread.join(5)
    # Interleaving across senders is arbitrary; order *within* each
    # sender is not.
    for rank, numbers in seen.items():
        assert numbers == list(range(PER_SENDER)), f"rank {rank} reordered"


def test_source_filter_buffers_other_senders(world):
    hub, senders = world[0], world[1:]
    threads = [threading.Thread(target=_blast, args=(c,)) for c in senders]
    for thread in threads:
        thread.start()
    # Drain one source completely first: the other sources' envelopes
    # must wait in the pending buffer, still in order.
    for source in [comm.rank for comm in senders]:
        numbers = [
            hub.recv(source=source, timeout=30.0).payload["n"]
            for _ in range(PER_SENDER)
        ]
        assert numbers == list(range(PER_SENDER))
    for thread in threads:
        thread.join(5)


def test_tag_filter_under_concurrent_tagged_senders(world):
    hub, senders = world[0], world[1:]
    # Every sender blasts on a tag equal to its own rank.
    threads = [
        threading.Thread(target=_blast, args=(c,), kwargs={"tag": c.rank})
        for c in senders
    ]
    for thread in threads:
        thread.start()
    for tag in [comm.rank for comm in senders]:
        numbers = [
            hub.recv(source=ANY, tag=tag, timeout=30.0).payload["n"]
            for _ in range(PER_SENDER)
        ]
        assert numbers == list(range(PER_SENDER))
    for thread in threads:
        thread.join(5)
