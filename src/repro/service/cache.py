"""Content-addressed result cache.

Results are addressed by the SHA-256 job digest
(:func:`repro.service.protocol.job_digest`): identical submissions —
same sequence, scoring model and search knobs — resolve to the same
digest and are served without realignment.

Two layers:

* **disk** — one JSON file per digest under ``root/<aa>/<digest>.json``
  (sharded by the first two hex characters), written and read through
  :mod:`repro.durable`, so a killed worker can never leave a
  half-written entry and a damaged one reads as a miss;
* **memory** — a small per-process LRU over parsed payloads, so the
  server answers repeat hits without re-reading or re-parsing.

The disk layer is shared by every process of one service instance
(server + workers); the LRU is per-process.  Writers may race on one
digest, but both write byte-identical content (that is the point of
content addressing), so last-replace-wins is correct.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any

from .. import durable

__all__ = ["ResultCache"]


class ResultCache:
    """On-disk content-addressed store with an in-memory LRU front.

    Parameters
    ----------
    root:
        Directory holding the sharded JSON entries (created on demand).
    memory_items:
        Maximum parsed payloads kept in the per-process LRU
        (``0`` disables the memory layer entirely).
    """

    def __init__(self, root: str | os.PathLike, *, memory_items: int = 64) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.memory_items = int(memory_items)
        self._lock = threading.Lock()
        self._mem: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self.hits_memory = 0
        self.hits_disk = 0
        self.misses = 0
        self.stores = 0

    def path_for(self, digest: str) -> Path:
        """Disk location of ``digest``'s entry (may not exist)."""
        if len(digest) < 3 or any(c not in "0123456789abcdef" for c in digest):
            raise ValueError(f"not a hex digest: {digest!r}")
        return self.root / digest[:2] / f"{digest}.json"

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            if digest in self._mem:
                return True
        return self.path_for(digest).exists()

    def resolve(self, prefix: str) -> str | None:
        """Expand a digest prefix to the unique full digest it names.

        Accepts at least six hex characters (fewer is too collision-prone
        to be a useful handle); returns ``None`` when the prefix is
        malformed, matches nothing on disk, or is ambiguous.
        """
        if len(prefix) < 6 or any(c not in "0123456789abcdef" for c in prefix):
            return None
        if len(prefix) >= 64:
            return prefix[:64]
        matches = [p.stem for p in (self.root / prefix[:2]).glob(f"{prefix}*.json")]
        return matches[0] if len(matches) == 1 else None

    def get(self, digest: str) -> dict[str, Any] | None:
        """The cached payload for ``digest``, or ``None`` on a miss."""
        with self._lock:
            payload = self._mem.get(digest)
            if payload is not None:
                self._mem.move_to_end(digest)
                self.hits_memory += 1
                return payload
        payload = durable.read_json(self.path_for(digest))
        if payload is None:
            with self._lock:
                self.misses += 1
            return None
        with self._lock:
            self.hits_disk += 1
            self._remember(digest, payload)
        return payload

    def put(self, digest: str, payload: dict[str, Any]) -> Path:
        """Store ``payload`` under ``digest`` (atomic); returns the path."""
        path = self.path_for(digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        durable.atomic_write(
            path,
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8"),
        )
        with self._lock:
            self.stores += 1
            self._remember(digest, payload)
        return path

    def _remember(self, digest: str, payload: dict[str, Any]) -> None:  # repro-lint: holds-lock
        if self.memory_items <= 0:
            return
        self._mem[digest] = payload
        self._mem.move_to_end(digest)
        while len(self._mem) > self.memory_items:
            self._mem.popitem(last=False)

    def stats(self) -> dict[str, int]:
        """Hit/miss counters plus the current LRU size."""
        with self._lock:
            return {
                "hits_memory": self.hits_memory,
                "hits_disk": self.hits_disk,
                "misses": self.misses,
                "stores": self.stores,
                "memory_entries": len(self._mem),
            }

    def entries(self) -> int:
        """Number of digests stored on disk (scans the shard dirs)."""
        return sum(1 for _ in self.root.glob("??/*.json"))
