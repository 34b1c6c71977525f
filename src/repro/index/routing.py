"""Routing: *skip / defer / full* classification from a k-mer profile.

The classifier turns the matrix-independent :class:`~repro.index.kmer.
KmerProfile` into a per-sequence routing decision under a concrete
scoring model:

* ``full`` — strong repeat signal (dense duplicate k-mers or a
  concentrated diagonal band).  Scanned first.
* ``defer`` — no strong signal, but skipping cannot be justified.
  Scanned after the full class (down-prioritised).  With a zero
  significance threshold every quiet sequence lands here — routing
  never discards work it cannot rule out.
* ``skip`` — the k-mer upper *estimate* of the best attainable
  alignment score falls below the caller's significance threshold
  (``min_score``), so the O(n³) pipeline is not entered at all and the
  sequence reports zero alignments in O(n).

A record that is not skipped gets exactly the search it would get
without the index: routing chooses which records are searched and in
what order, never how.

The estimate is::

    smax⁺ × (BACKGROUND_BETA × log2(n + 1) + CHAIN_SLACK × peak_band)

The first term covers the *background*: even a featureless random
sequence reaches a self-alignment score that grows roughly
logarithmically with length under affine gaps (Gumbel-type extremes),
with zero shared k-mers — so a threshold below that background never
skips anything.  The second term covers genuine copy structure: the
peak diagonal band (scaled by ``CHAIN_SLACK`` to allow for
mismatch-interrupted chains on the same diagonal).  Diverged repeats
concentrate their surviving shared k-mers on the band of the copy
spacing, while random duplicate hits scatter across all bands — which
is why the *peak* band, not the total hit count, is the signal.

The skip class is a calibrated heuristic, not a proof — no o(n²)
statistic can bound a gapped local alignment score tightly (isolated
single-residue matches carry positive score with zero shared k-mers).
``MARGIN`` widens the estimate for safety, skipping only ever fires
when ``min_score > 0``, and the benchmark *measures* byte-equality of
accepted tops rather than asserting it axiomatically.  Callers that
need exactness (the service job path) never route at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from ..scoring.exchange import ExchangeMatrix
from .kmer import DEFAULT_MAX_OCC, KmerProfile

__all__ = [
    "ROUTE_FULL",
    "ROUTE_DEFER",
    "ROUTE_SKIP",
    "IndexConfig",
    "RouteDecision",
    "classify",
    "promise_score",
]

ROUTE_FULL = "full"
ROUTE_DEFER = "defer"
ROUTE_SKIP = "skip"


#: The index tier's calibration: constants, not options.  ``WINDOW``,
#: ``HOT_FRACTION``, ``BAND_WIDTH`` (0: ``max(8, k)``) and ``MAX_OCC``
#: shape the profile itself, and therefore the store key;
#: ``CHAIN_SLACK``, ``BACKGROUND_BETA``, ``MARGIN`` and ``FULL_THRESHOLD``
#: only shape the routing decision and can change without invalidating
#: stored artifacts.
WINDOW = 32
HOT_FRACTION = 0.3
BAND_WIDTH = 0
MAX_OCC = DEFAULT_MAX_OCC
CHAIN_SLACK = 3.0
BACKGROUND_BETA = 4.0
MARGIN = 1.25
FULL_THRESHOLD = 0.05


@dataclass(frozen=True)
class IndexConfig:
    """The one setting of the k-mer index tier: the word length ``k``
    (0: the alphabet's default).  The rest is the module's calibration
    constants."""

    k: int = 0

    def profile_params(self) -> dict[str, Any]:
        """The profile-shaping parameters (the store-key subset)."""
        return {
            "k": self.k,
            "window": WINDOW,
            "hot_fraction": HOT_FRACTION,
            "band_width": BAND_WIDTH,
            "max_occ": MAX_OCC,
        }


@dataclass(frozen=True)
class RouteDecision:
    """One sequence's routing class plus the estimate that produced it."""

    route: str
    estimate: float


def _estimate(profile: KmerProfile, exchange: ExchangeMatrix) -> float:
    smax = max(exchange.max_score, 0.0)
    background = BACKGROUND_BETA * math.log2(profile.length + 1)
    signal = CHAIN_SLACK * profile.peak_band
    return smax * (background + signal)


def promise_score(profile: KmerProfile, exchange: ExchangeMatrix) -> float:
    """Raw (margin-free) score estimate used for shard prioritisation."""
    if profile.overflowed:
        # An overflowed bucket means a massively repeated word — promise
        # saturates rather than paying the pair expansion.
        return max(exchange.max_score, 0.0) * float(profile.length)
    return _estimate(profile, exchange)


def classify(
    profile: KmerProfile,
    exchange: ExchangeMatrix,
    *,
    min_score: float,
    config: IndexConfig | None = None,
) -> RouteDecision:
    """Route one sequence given its profile and the scoring model
    (``config`` is accepted and unread: routing is calibration only)."""
    smax = max(exchange.max_score, 0.0)
    if profile.overflowed or profile.max_count > MAX_OCC:
        return RouteDecision(ROUTE_FULL, smax * float(profile.length))
    estimate = _estimate(profile, exchange)
    if min_score > 0.0 and MARGIN * estimate < min_score:
        return RouteDecision(ROUTE_SKIP, estimate)
    if (
        profile.dup_fraction >= FULL_THRESHOLD
        or profile.peak_band >= 3
        or profile.hotspots
    ):
        return RouteDecision(ROUTE_FULL, estimate)
    return RouteDecision(ROUTE_DEFER, estimate)
