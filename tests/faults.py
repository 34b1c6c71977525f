"""A fault-injection shim over :mod:`repro.durable`.

Every durable store reads and writes its files through the two
functions of :mod:`repro.durable`; :class:`FaultyDisk` stands in for
both, counts their calls, and damages exactly one of them:

``truncate`` / ``flip``
    a write publishes a proper prefix of its bytes, or its bytes with
    one bit flipped (a torn or rotted file after a crash); a read finds
    its file so damaged on disk first;
``enospc`` / ``eacces``
    a write fails with that ``OSError`` after writing a prefix of its
    bytes to the temp file; a read cannot open its file;
``replace``
    a write's ``os.replace`` fails; a read cannot open its file.

Install it with ``monkeypatch.setattr`` via :meth:`FaultyDisk.install`;
``fault=None`` only counts calls.
"""

from __future__ import annotations

import errno
import io
import os
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

from repro import durable

KINDS = ("truncate", "flip", "enospc", "eacces", "replace")

_write = durable.atomic_write
_read = durable.read_json


@dataclass(frozen=True)
class Fault:
    """One fault: at primitive call ``call`` (0-based), of ``kind``, at
    byte ``at`` (taken modulo the file's size) and bit ``bit``."""

    call: int
    kind: str
    at: int = 0
    bit: int = 0


def _error(code: int, path) -> OSError:
    return OSError(code, os.strerror(code), os.fspath(path))


class FaultyDisk:
    """Counts :mod:`repro.durable` calls and injects one :class:`Fault`.

    After the run, ``hit`` is ``("read" | "write", path)`` of the call
    the fault landed on (``None`` when the run made fewer calls),
    ``raised`` the ``OSError`` it raised (if any), and ``written``
    maps every path to the bytes of its last complete write.
    """

    def __init__(self, fault: Fault | None = None) -> None:
        self.fault = fault
        self.calls = 0
        self.hit: tuple[str, str] | None = None
        self.raised: OSError | None = None
        self.written: dict[str, bytes] = {}

    def install(self, monkeypatch) -> "FaultyDisk":
        monkeypatch.setattr(durable, "atomic_write", self.atomic_write)
        monkeypatch.setattr(durable, "read_json", self.read_json)
        return self

    def _due(self, op: str, path) -> bool:
        call, self.calls = self.calls, self.calls + 1
        if self.fault is None or call != self.fault.call:
            return False
        self.hit = (op, os.fspath(path))
        return True

    def _damaged(self, data: bytes) -> bytes:
        fault = self.fault
        if not data:
            return data
        at = fault.at % len(data)
        if fault.kind == "truncate":
            return data[:at]
        flipped = bytearray(data)
        flipped[at] ^= 1 << fault.bit
        return bytes(flipped)

    def _raise(self, error: OSError):
        self.raised = error
        raise error

    def atomic_write(self, path, data) -> None:
        if callable(data):
            buffer = io.BytesIO()
            data(buffer)
            data = buffer.getvalue()
        if not self._due("write", path):
            _write(path, data)
            self.written[os.fspath(path)] = data
            return
        kind = self.fault.kind
        if kind in ("truncate", "flip"):
            _write(path, self._damaged(data))
        elif kind in ("enospc", "eacces"):
            error = _error(errno.ENOSPC if kind == "enospc" else errno.EACCES, path)

            def torn(fh):
                fh.write(data[: self.fault.at % (len(data) + 1)])
                self._raise(error)

            _write(path, torn)
        else:
            error = _error(errno.EIO, path)
            failing = mock.Mock(side_effect=lambda *a: self._raise(error))
            with mock.patch.object(os, "replace", failing):
                _write(path, data)

    def read_json(self, path):
        if not self._due("read", path):
            return _read(path)
        if self.fault.kind in ("truncate", "flip"):
            target = Path(path)
            if target.exists():
                target.write_bytes(self._damaged(target.read_bytes()))
            return _read(path)
        error = _error(errno.EACCES, path)
        with mock.patch.object(
            durable, "open", side_effect=lambda *a, **k: self._raise(error), create=True
        ):
            return _read(path)
