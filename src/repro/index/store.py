"""Content-addressed persistence of index artifacts.

An index artifact is the JSON-serialised :class:`~repro.index.kmer.
KmerProfile` of one sequence under one set of profile parameters.  It
is stored in the same sharded content-addressed layout the service
result cache uses (:class:`repro.service.cache.ResultCache`), keyed by

    sha256( kind, INDEX_VERSION, sequence digest, alphabet, params )

so the *same database scanned twice is index-warm*: the second run
loads every profile from disk and rebuilds zero indices.  The key
deliberately excludes the scoring matrix and the routing knobs
(``chain_slack``/``margin``/``full_threshold``) — profiles are
matrix-independent counts, so one artifact serves every scoring model
and any routing calibration.

``INDEX_VERSION`` bumps whenever the profile computation changes
meaning; old artifacts then miss naturally instead of poisoning new
runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Any

from .. import obs
from ..sequences.sequence import Sequence
from ..service.cache import ResultCache
from .kmer import KmerProfile, build_profile
from .routing import IndexConfig

__all__ = ["INDEX_VERSION", "IndexStore", "index_digest", "sequence_digest"]

INDEX_VERSION = 1


def sequence_digest(sequence: Sequence) -> str:
    """SHA-256 of the encoded residues (alphabet-qualified)."""
    h = hashlib.sha256()
    h.update(sequence.alphabet.name.encode("utf-8"))
    h.update(b"\x00")
    h.update(sequence.codes.tobytes())
    return h.hexdigest()


def index_digest(sequence: Sequence, config: IndexConfig) -> str:
    """The content address of ``sequence``'s profile under ``config``."""
    key = {
        "kind": "kmer-index",
        "version": INDEX_VERSION,
        "sequence": sequence_digest(sequence),
        "alphabet": sequence.alphabet.name,
        "params": config.profile_params(),
    }
    canonical = json.dumps(key, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class IndexStore:
    """Sharded on-disk store of index artifacts.

    Rooted at its own directory (conventionally ``<data_dir>/index``)
    so index artifacts and job results stay separately countable.
    """

    def __init__(self, root: str | os.PathLike, *, memory_items: int = 64) -> None:
        self.cache = ResultCache(root, memory_items=memory_items)
        self.hits = 0
        self.misses = 0
        self.builds = 0
        self.build_seconds = 0.0

    def load(self, sequence: Sequence, config: IndexConfig) -> KmerProfile | None:
        """The stored profile for ``sequence``/``config``, or ``None``."""
        payload = self.cache.get(index_digest(sequence, config))
        if payload is None or payload.get("version") != INDEX_VERSION:
            self.misses += 1
            obs.record("repro_index_store_misses_total")
            return None
        try:
            profile = KmerProfile.from_dict(payload["profile"])
        except (KeyError, TypeError, ValueError):
            self.misses += 1
            obs.record("repro_index_store_misses_total")
            return None
        self.hits += 1
        obs.record("repro_index_store_hits_total")
        return profile

    def store(
        self, sequence: Sequence, config: IndexConfig, profile: KmerProfile
    ) -> None:
        """Persist ``profile`` under its content address (atomic)."""
        payload: dict[str, Any] = {
            "version": INDEX_VERSION,
            "params": config.profile_params(),
            "profile": profile.to_dict(),
        }
        self.cache.put(index_digest(sequence, config), payload)

    def build_or_load(
        self, sequence: Sequence, config: IndexConfig
    ) -> tuple[KmerProfile, bool]:
        """Load the profile from the store, or build and persist it.

        Returns ``(profile, built)`` where ``built`` tells whether a
        fresh build happened (warm reruns return ``built=False`` for
        every record).
        """
        profile = self.load(sequence, config)
        if profile is not None:
            return profile, False
        start = time.perf_counter()
        profile = build_profile(sequence, **config.profile_params())
        elapsed = time.perf_counter() - start
        self.builds += 1
        self.build_seconds += elapsed
        obs.record("repro_index_build_seconds", elapsed)
        self.store(sequence, config, profile)
        return profile, True

    def entries(self) -> int:
        """Number of artifacts on disk."""
        return self.cache.entries()

    def stats(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "builds": self.builds,
            "build_seconds": self.build_seconds,
            "entries": self.entries(),
        }
