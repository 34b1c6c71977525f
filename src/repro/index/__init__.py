"""``repro.index`` — the k-mer screening tier of database scans.

Every sequence in a database scan used to pay the full O(n³)
top-alignment cost even when it carries no repeat signal.  This package
adds a linear-time screening pass in front of the exact pipeline:

* :mod:`~repro.index.kmer` — a bucketed k-mer frequency profile
  (duplicate fraction, diagonal-band hit concentration, hotspot
  intervals) computed in one pass over the encoded sequence;
* :mod:`~repro.index.bounds` — provable per-split upper bounds on the
  first-pass top-alignment score from residue counts alone.  No search
  reads them (the exact block bounds of :mod:`repro.align.pruning`
  start every split); the benchmark measures their tightness;
* :mod:`~repro.index.routing` — the *skip / defer / full* classifier
  driven by the profile;
* :mod:`~repro.index.store` — content-addressed persistence of index
  artifacts (sequence digest + index params), so warm reruns of the
  same database rebuild zero indices.

By design this package never imports the alignment kernels
(``repro.align``) — enforced by lint rule RPR017 — so index
construction stays O(n log n) and cannot accidentally grow an O(n²)
dependency.
"""

from .bounds import seed_score_bounds
from .kmer import KmerProfile, build_profile, default_k
from .routing import (
    ROUTE_DEFER,
    ROUTE_FULL,
    ROUTE_SKIP,
    IndexConfig,
    RouteDecision,
    classify,
    promise_score,
)
from .store import INDEX_VERSION, IndexStore, index_digest

__all__ = [
    "INDEX_VERSION",
    "IndexConfig",
    "IndexStore",
    "KmerProfile",
    "ROUTE_DEFER",
    "ROUTE_FULL",
    "ROUTE_SKIP",
    "RouteDecision",
    "build_profile",
    "classify",
    "default_k",
    "index_digest",
    "promise_score",
    "seed_score_bounds",
]
