"""Linear-memory bottom rows via on-demand recomputation (Appendix A).

Storing all first-pass bottom rows costs ``m(m-1)/2`` values — 1.2 GB
of shorts for titin, "the largest data structure that we use".  The
appendix sketches the alternative: "on-demand recomputation of the last
row is also possible at the expense of extra work; this would allow an
implementation that requires only a linear amount of memory ... We
have, however, not found the need to implement this."

This module implements it.  :class:`RecomputingBottomRowStore` is a
drop-in replacement for :class:`~repro.core.bottomrows.BottomRowStore`
that keeps only an LRU cache of hot rows and recomputes evicted ones
with the plain (override-free) engine when the shadow test needs them.
Extra work is counted so the memory/compute trade-off is measurable.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..align.base import AlignmentEngine, AlignmentProblem
from ..align.profile import QueryProfile
from ..scoring.exchange import ExchangeMatrix
from ..scoring.gaps import GapPenalties

__all__ = ["RecomputingBottomRowStore"]


class RecomputingBottomRowStore:
    """Bottom-row store with bounded memory and on-demand recomputation.

    Parameters
    ----------
    codes, exchange, gaps, engine:
        Everything needed to recompute a first-pass row from scratch.
    capacity:
        Maximum number of rows kept resident.  ``sum(len(row))`` over
        ``capacity`` hottest rows is the real memory bound; with
        ``capacity ~ O(1)`` the store is O(m) as the appendix promises.
    profile:
        Optional precomputed :class:`~repro.align.profile.QueryProfile`
        of ``codes`` — recomputations then slice it instead of
        re-gathering the exchange matrix.
    """

    def __init__(
        self,
        codes: np.ndarray,
        exchange: ExchangeMatrix,
        gaps: GapPenalties,
        engine: AlignmentEngine,
        *,
        capacity: int = 32,
        profile: QueryProfile | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.m = int(codes.size)
        if self.m < 2:
            raise ValueError("sequence length must be at least 2")
        self._codes = np.ascontiguousarray(codes, dtype=np.int8)
        self._exchange = exchange
        self._gaps = gaps
        self._engine = engine
        self._profile = profile
        self.capacity = capacity
        self._cache: OrderedDict[int, np.ndarray] = OrderedDict()
        self._known: set[int] = set()
        #: Rows recomputed after eviction — the appendix's "extra work".
        self.recomputations = 0

    def __contains__(self, r: int) -> bool:
        return r in self._known

    def __len__(self) -> int:
        return len(self._known)

    @property
    def resident_rows(self) -> int:
        """Rows currently held in memory (<= capacity)."""
        return len(self._cache)

    @property
    def nbytes(self) -> int:
        """Resident memory — bounded, unlike the dense store."""
        return sum(row.nbytes for row in self._cache.values())

    def _compute(self, r: int) -> np.ndarray:
        # A recomputed first-pass row feeds the shadow-validity test
        # cell-for-cell: the exact override-free bottom row.
        problem = AlignmentProblem(
            self._codes[:r],
            self._codes[r:],
            self._exchange,
            self._gaps,
            profile=self._profile.suffix(r) if self._profile is not None else None,
        )
        row = self._engine.last_row(problem)
        row.setflags(write=False)
        return row

    def _insert(self, r: int, row: np.ndarray) -> None:
        self._cache[r] = row
        self._cache.move_to_end(r)
        while len(self._cache) > self.capacity:
            self._cache.popitem(last=False)

    def put(self, r: int, row: np.ndarray) -> None:
        """Record split ``r``'s first-pass row (write-once semantics)."""
        if not 1 <= r < self.m:
            raise ValueError(f"split r={r} outside 1..{self.m - 1}")
        if r in self._known:
            raise ValueError(f"bottom row for split r={r} already stored")
        expected = self.m - r + 1
        if row.shape != (expected,):
            raise ValueError(
                f"bottom row for split r={r} must have length {expected}, "
                f"got {row.shape}"
            )
        frozen = np.array(row, dtype=np.float64, copy=True)
        frozen.setflags(write=False)
        self._known.add(r)
        self._insert(r, frozen)

    def get(self, r: int) -> np.ndarray:
        """The first-pass row of split ``r``, recomputing if evicted."""
        if r not in self._known:
            raise KeyError(r)
        row = self._cache.get(r)
        if row is None:
            row = self._compute(r)
            self.recomputations += 1
            self._insert(r, row)
        else:
            self._cache.move_to_end(r)
        return row

    def valid_mask(self, r: int, fresh_row: np.ndarray) -> np.ndarray:
        """Shadow-validity mask, as in the dense store."""
        original = self.get(r)
        if fresh_row.shape != original.shape:
            raise ValueError(
                f"row length mismatch for split r={r}: "
                f"{fresh_row.shape} vs {original.shape}"
            )
        return fresh_row == original

    def score_of(self, r: int, fresh_row: np.ndarray) -> float:
        """Best valid (non-shadow) score of a realignment's bottom row."""
        mask = self.valid_mask(r, fresh_row)
        if not mask.any():
            return 0.0
        return float(fresh_row[mask].max())
