"""Socket transport: length-prefixed JSON frames over framed channels.

This is the **only** module in :mod:`repro.cluster` that touches raw
sockets; everything above it speaks :class:`Channel` objects and plain
Python payloads.

Wire format
-----------
One frame = a 4-byte big-endian length prefix followed by that many
bytes of UTF-8 JSON.  Payloads go through a small tagged codec
(:func:`encode_payload` / :func:`decode_payload`) so the protocol can
carry the objects the paper's master/slave protocol actually exchanges
— numpy bottom rows, byte strings, tuples of pairs — without pickle on
the wire (a cluster port must not be a remote-code-execution port).

Envelopes
---------
The tagged ``send``/``recv`` envelope layer of §4.3's master/slave
protocol (:class:`repro.parallel.msgpass.Communicator`) runs over these
channels too; the coordinator and node agents speak :class:`Channel`
directly.
"""

from __future__ import annotations

import base64
import json
import socket
import struct
import threading
import time
from typing import Any

import numpy as np

__all__ = [
    "DEFAULT_TIMEOUT",
    "Channel",
    "FrameError",
    "Listener",
    "connect",
    "decode_payload",
    "encode_payload",
]

#: Every socket this package creates carries an explicit timeout — a
#: silent distributed hang is worse than a loud failure.
DEFAULT_TIMEOUT = 30.0

#: Frames larger than this are protocol bugs, not payloads.
MAX_FRAME_BYTES = 256 * 1024 * 1024

_LEN = struct.Struct(">I")


class FrameError(ConnectionError):
    """The peer closed mid-frame or sent a malformed frame."""


# ---------------------------------------------------------------------------
# payload codec — JSON with tagged ndarray/bytes/tuple extensions
# ---------------------------------------------------------------------------


def encode_payload(obj: Any) -> Any:
    """JSON-encodable form of ``obj`` (ndarray/bytes/tuple tagged)."""
    if isinstance(obj, np.ndarray):
        return {
            "__nd__": {
                "dtype": obj.dtype.str,
                "shape": list(obj.shape),
                "b64": base64.b64encode(np.ascontiguousarray(obj).tobytes()).decode(
                    "ascii"
                ),
            }
        }
    if isinstance(obj, (bytes, bytearray)):
        return {"__bytes__": base64.b64encode(bytes(obj)).decode("ascii")}
    if isinstance(obj, tuple):
        return {"__tuple__": [encode_payload(item) for item in obj]}
    if isinstance(obj, list):
        return [encode_payload(item) for item in obj]
    if isinstance(obj, dict):
        encoded = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"frame dict keys must be str, got {type(key)}")
            if key.startswith("__") and key.endswith("__"):
                raise TypeError(f"frame dict key {key!r} collides with codec tags")
            encoded[key] = encode_payload(value)
        return encoded
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(f"cannot encode {type(obj).__name__} into a JSON frame")


def decode_payload(obj: Any) -> Any:
    """Inverse of :func:`encode_payload`."""
    if isinstance(obj, dict):
        if "__nd__" in obj:
            spec = obj["__nd__"]
            data = base64.b64decode(spec["b64"])
            return np.frombuffer(data, dtype=np.dtype(spec["dtype"])).reshape(
                spec["shape"]
            )
        if "__bytes__" in obj:
            return base64.b64decode(obj["__bytes__"])
        if "__tuple__" in obj:
            return tuple(decode_payload(item) for item in obj["__tuple__"])
        return {key: decode_payload(value) for key, value in obj.items()}
    if isinstance(obj, list):
        return [decode_payload(item) for item in obj]
    return obj


# ---------------------------------------------------------------------------
# channels — framed, locked, timeout-carrying connections
# ---------------------------------------------------------------------------


class Channel:
    """One framed TCP connection: locked sends, timeout-bounded reads.

    ``send`` may be called from several threads (the node agent's
    heartbeat thread shares the channel with its work loop — the same
    "protect all MPI calls with a mutex" workaround §4.3 describes);
    ``recv`` must stay on one thread per channel, which is what keeps
    per-pair FIFO order trivial.
    """

    def __init__(self, sock: socket.socket, *, timeout: float = DEFAULT_TIMEOUT) -> None:
        sock.settimeout(timeout)
        self._sock = sock
        self._send_lock = threading.Lock()
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def peername(self) -> str:
        try:
            host, port = self._sock.getpeername()[:2]
            return f"{host}:{port}"
        except OSError:
            return "<closed>"

    def send(self, obj: Any) -> None:
        """Send one frame (thread-safe)."""
        body = json.dumps(
            encode_payload(obj), separators=(",", ":"), allow_nan=False
        ).encode("utf-8")
        if len(body) > MAX_FRAME_BYTES:
            raise FrameError(f"frame of {len(body)} bytes exceeds MAX_FRAME_BYTES")
        with self._send_lock:
            self._sock.sendall(_LEN.pack(len(body)) + body)

    def recv(self, timeout: float | None = None) -> Any:
        """Receive one frame; raises :class:`FrameError` on EOF/garbage
        and :class:`TimeoutError` when ``timeout`` (or the channel
        default) elapses with no complete frame."""
        if timeout is not None:
            self._sock.settimeout(timeout)
        try:
            header = self._recv_exact(_LEN.size)
            (length,) = _LEN.unpack(header)
            if length > MAX_FRAME_BYTES:
                raise FrameError(f"peer announced an {length}-byte frame")
            body = self._recv_exact(length)
        except socket.timeout:
            raise TimeoutError("no complete frame within the timeout") from None
        try:
            return decode_payload(json.loads(body.decode("utf-8")))
        except Exception as exc:  # noqa: BLE001 - peer bytes fail the codec anywhere
            # Bad UTF-8 or JSON, or a codec tag with missing or mistyped
            # fields: each layer raises its own type, all mean this.
            raise FrameError(f"malformed frame: {exc!r}") from None

    def _recv_exact(self, n: int) -> bytes:
        chunks: list[bytes] = []
        remaining = n
        while remaining:
            chunk = self._sock.recv(min(remaining, 1 << 20))
            if not chunk:
                raise FrameError("connection closed mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def close(self) -> None:
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class Listener:
    """A bound, listening TCP socket handing out :class:`Channel` objects."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = 0, *, timeout: float = DEFAULT_TIMEOUT
    ) -> None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(timeout)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind((host, port))
        sock.listen(128)
        self._sock = sock
        self.host, self.port = sock.getsockname()[:2]

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def accept(self, timeout: float | None = None) -> Channel:
        """Accept one connection; raises :class:`TimeoutError` when none
        arrives in time (callers poll so shutdown stays responsive)."""
        if timeout is not None:
            self._sock.settimeout(timeout)
        try:
            sock, _addr = self._sock.accept()
        except socket.timeout:
            raise TimeoutError("no incoming connection within the timeout") from None
        return Channel(sock)

    def close(self) -> None:
        self._sock.close()


def connect(
    host: str, port: int, *, timeout: float = DEFAULT_TIMEOUT, attempts: int = 1,
    retry_delay: float = 0.1,
) -> Channel:
    """Open a framed connection, optionally retrying a slow-to-bind peer."""
    last: Exception | None = None
    for attempt in range(max(1, attempts)):
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            return Channel(sock, timeout=timeout)
        except OSError as exc:
            last = exc
            if attempt + 1 < attempts:
                time.sleep(retry_delay * (attempt + 1))
    raise ConnectionError(f"cannot connect to {host}:{port}: {last}")
