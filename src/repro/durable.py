"""The one file primitive of the durable stores (DESIGN.md, "Durable state").

Stdlib only and nothing from :mod:`repro`, so every layer may import it.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
from typing import IO, Any, Callable

__all__ = ["atomic_write", "read_json"]


def atomic_write(
    path: str | os.PathLike, data: bytes | Callable[[IO[bytes]], object]
) -> None:
    """Write ``data`` (bytes, or a callback writing to the open file) to a
    temp file beside ``path``, then ``os.replace`` it onto ``path``.  On
    any failure the temp file is removed, ``path`` is left as it was and
    the exception propagates."""
    directory, name = os.path.split(os.fspath(path))
    # Pid and thread: no two writers of one file share a temp file.
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            if callable(data):
                data(fh)
            else:
                fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def read_json(path: str | os.PathLike) -> Any | None:
    """The JSON value at ``path``, or ``None`` when it is absent,
    unreadable, not UTF-8 or not JSON.  The last two are damage (a torn
    or rotted file): the file is removed, so it is rewritten or
    recomputed instead of failing every later read."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError:
        return None
    try:
        return json.loads(data.decode("utf-8"))
    except ValueError:
        with contextlib.suppress(OSError):
            os.unlink(path)
        return None
