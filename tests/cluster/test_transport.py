"""The socket transport: codec, framed channels, and the envelope
matching ``repro.parallel.msgpass`` layers on a channel pair."""

import json
import struct
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.transport import (
    Channel,
    FrameError,
    Listener,
    connect,
    decode_payload,
    encode_payload,
)
from repro.parallel.msgpass import ANY, Communicator


def _roundtrip(obj):
    return decode_payload(encode_payload(obj))


class TestCodec:
    def test_ndarray_roundtrip_preserves_dtype_and_bytes(self):
        for arr in (
            np.linspace(-3.5, 7.25, 17, dtype=np.float64),
            np.arange(12, dtype=np.int32).reshape(3, 4),
            np.array([], dtype=np.float32),
        ):
            back = _roundtrip(arr)
            assert back.dtype == arr.dtype
            assert back.shape == arr.shape
            assert back.tobytes() == arr.tobytes()

    def test_nested_containers_roundtrip(self):
        obj = {
            "rows": [(3, np.ones(4)), (4, np.zeros(2))],
            "blob": b"\x00\xff\x10",
            "meta": {"ok": True, "n": 7, "name": "shard"},
            "nothing": None,
        }
        back = _roundtrip(obj)
        assert isinstance(back["rows"][0], tuple)
        assert back["rows"][0][0] == 3
        np.testing.assert_array_equal(back["rows"][0][1], np.ones(4))
        assert back["blob"] == b"\x00\xff\x10"
        assert back["meta"] == obj["meta"]
        assert back["nothing"] is None

    def test_numpy_scalars_coerced_to_python(self):
        assert _roundtrip(np.int64(41)) == 41
        assert _roundtrip(np.float64(2.5)) == 2.5
        assert isinstance(encode_payload(np.int64(1)), int)

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(TypeError, match="keys must be str"):
            encode_payload({3: "shard"})

    def test_dunder_keys_rejected_as_codec_collisions(self):
        with pytest.raises(TypeError, match="codec tags"):
            encode_payload({"__nd__": "spoof"})

    def test_unencodable_object_rejected(self):
        with pytest.raises(TypeError, match="cannot encode"):
            encode_payload(object())


#: Any JSON value, with the codec's tags and their fields as likely keys.
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(
        st.sampled_from(["__nd__", "__bytes__", "__tuple__", "dtype", "shape", "b64"])
        | st.text(max_size=4),
        inner,
        max_size=4,
    ),
    max_leaves=12,
)


@pytest.fixture()
def channel_pair():
    """A connected (client, server) pair of framed channels."""
    listener = Listener("127.0.0.1", 0, timeout=5.0)
    accepted = {}

    def _accept():
        accepted["server"] = listener.accept(timeout=5.0)

    thread = threading.Thread(target=_accept)
    thread.start()
    client = connect("127.0.0.1", listener.port, timeout=5.0)
    thread.join(5)
    listener.close()
    server = accepted["server"]
    try:
        yield client, server
    finally:
        client.close()
        server.close()


class TestChannel:
    def test_send_recv_roundtrip(self, channel_pair):
        client, server = channel_pair
        client.send({"kind": "ready", "node_id": "n1"})
        frame = server.recv(timeout=5.0)
        assert frame == {"kind": "ready", "node_id": "n1"}

    def test_large_ndarray_frame(self, channel_pair):
        client, server = channel_pair
        row = np.random.default_rng(7).random(100_000)
        client.send({"kind": "result", "row": row})
        frame = server.recv(timeout=10.0)
        assert frame["row"].tobytes() == row.tobytes()

    def test_fifo_per_connection(self, channel_pair):
        client, server = channel_pair
        for i in range(20):
            client.send({"seq": i})
        got = [server.recv(timeout=5.0)["seq"] for _ in range(20)]
        assert got == list(range(20))

    def test_recv_timeout_raises(self, channel_pair):
        client, _ = channel_pair
        with pytest.raises(TimeoutError):
            client.recv(timeout=0.05)

    def test_peer_close_raises_frame_error(self, channel_pair):
        client, server = channel_pair
        server.close()
        with pytest.raises(FrameError):
            client.recv(timeout=5.0)

    @settings(deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=_json_values)
    def test_any_json_frame_is_a_payload_or_a_frame_error(self, channel_pair, value):
        client, server = channel_pair
        body = json.dumps(value).encode("utf-8")
        client._sock.sendall(struct.pack(">I", len(body)) + body)
        try:
            server.recv(timeout=5.0)
        except FrameError:
            pass

    def test_nan_rejected_not_smuggled(self, channel_pair):
        client, _ = channel_pair
        with pytest.raises(ValueError):
            client.send({"score": float("nan")})


@pytest.fixture()
def comm_pair(channel_pair):
    """Two connected communicators of a three-rank world: rank 0 (the
    hub) and rank 1; rank 2 is not wired."""
    hub_channel, peer_channel = channel_pair
    hub = Communicator(0, 3, {1: hub_channel})
    peer = Communicator(1, 3, {0: peer_channel})
    yield hub, peer


class TestSocketCommunicator:
    def test_tagged_roundtrip(self, comm_pair):
        hub, peer = comm_pair
        peer.send({"best": 12.5}, dest=0, tag=3)
        message = hub.recv(source=1, tag=3, timeout=5.0)
        assert message.source == 1
        assert message.tag == 3
        assert message.payload == {"best": 12.5}

    def test_tag_filter_buffers_non_matching_envelopes(self, comm_pair):
        hub, peer = comm_pair
        peer.send("first-tag-7", dest=0, tag=7)
        peer.send("the-tag-9", dest=0, tag=9)
        peer.send("second-tag-7", dest=0, tag=7)
        assert hub.recv(source=ANY, tag=9, timeout=5.0).payload == "the-tag-9"
        # The buffered tag-7 envelopes stay in arrival order.
        assert hub.recv(source=ANY, tag=7, timeout=5.0).payload == "first-tag-7"
        assert hub.recv(source=ANY, tag=7, timeout=5.0).payload == "second-tag-7"

    def test_any_wildcards(self, comm_pair):
        hub, peer = comm_pair
        peer.send(41, dest=0, tag=5)
        message = hub.recv(timeout=5.0)
        assert (message.source, message.tag, message.payload) == (1, 5, 41)

    def test_send_outside_world_rejected(self, comm_pair):
        hub, _ = comm_pair
        with pytest.raises(ValueError, match="outside"):
            hub.send("x", dest=3)

    def test_peer_without_channel_rejected(self, comm_pair):
        _, peer = comm_pair
        with pytest.raises(ValueError, match="star"):
            peer.send("x", dest=2)

    def test_recv_timeout(self, comm_pair):
        hub, _ = comm_pair
        with pytest.raises(TimeoutError):
            hub.recv(timeout=0.05)
