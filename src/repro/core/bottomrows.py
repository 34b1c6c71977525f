"""The bottom-row store (Appendix A).

After a split's *first* alignment (empty override triangle) its bottom
row is cached.  On every realignment the fresh bottom row is compared
against the cached one: cells whose value changed were rerouted around
an accepted alignment ("shadow alignments") and are invalid endpoints;
the realignment's score is the maximum over the *unchanged* cells.

Storing all bottom rows costs ``m (m-1) / 2`` values — "the largest
data structure that we use" — which is why the distributed
implementation keeps it on the master and lets slaves cache replicas
(§4.3).  The appendix's way out, "on-demand recomputation of the last
row ... at the expense of extra work", is the store's ``capacity``: past
that many resident bytes the least recently used row is evicted, and
asking for it again refills it through the ``refill`` callback, which
the search state counts like any other fill.
"""

from __future__ import annotations

from collections import OrderedDict
from types import MappingProxyType
from typing import Callable, Mapping

import numpy as np

__all__ = ["BottomRowStore"]


class BottomRowStore:
    """Cache of first-alignment bottom rows, keyed by split r.

    Rows are stored as float64 arrays of length ``m - r + 1`` (index 0
    is the zero boundary column, matching engine output).  Every row
    ever put stays *known* — its maximum is kept, one float per split —
    but only ``capacity`` bytes of rows stay resident (all of them when
    ``capacity`` is ``None``).  Past it the least recently used row is
    evicted, never the one just put or fetched; :meth:`get` refills an
    evicted row with ``refill(r)``, which must return the exact
    override-free row.
    """

    def __init__(
        self,
        m: int,
        *,
        capacity: int | None = None,
        refill: Callable[[int], np.ndarray] | None = None,
    ) -> None:
        if m < 2:
            raise ValueError("sequence length must be at least 2")
        if capacity is not None and refill is None:
            raise ValueError("a store that evicts rows needs a refill")
        self.m = m
        self.capacity = capacity
        self._refill = refill
        self._rows: OrderedDict[int, np.ndarray] = OrderedDict()
        self._maxima: dict[int, float] = {}
        #: Bytes of the resident rows.
        self.nbytes = 0
        #: Evicted rows fetched again — the appendix's "extra work".
        self.refills = 0

    def __contains__(self, r: int) -> bool:
        return r in self._maxima

    def __len__(self) -> int:
        return len(self._maxima)

    def put(self, r: int, row: np.ndarray) -> None:
        """Cache the first-alignment bottom row of split ``r`` (write-once)."""
        if not 1 <= r < self.m:
            raise ValueError(f"split r={r} outside 1..{self.m - 1}")
        if r in self._maxima:
            raise ValueError(f"bottom row for split r={r} already stored")
        expected = self.m - r + 1
        if row.shape != (expected,):
            raise ValueError(
                f"bottom row for split r={r} must have length {expected}, "
                f"got {row.shape}"
            )
        frozen = np.array(row, dtype=np.float64, copy=True)
        self._maxima[r] = float(frozen.max())
        self._hold(r, frozen)

    def get(self, r: int) -> np.ndarray:
        """The row of split ``r``, refilled if evicted (raises KeyError
        if it was never put)."""
        row = self._rows.get(r)
        if row is not None:
            self._rows.move_to_end(r)
            return row
        if r not in self._maxima:
            raise KeyError(r)
        self.refills += 1
        return self._hold(r, np.array(self._refill(r), dtype=np.float64, copy=True))

    def _hold(self, r: int, row: np.ndarray) -> np.ndarray:
        row.setflags(write=False)
        self._rows[r] = row
        self.nbytes += row.nbytes
        if self.capacity is not None:
            while self.nbytes > self.capacity and len(self._rows) > 1:
                self.nbytes -= self._rows.popitem(last=False)[1].nbytes
        return row

    def max_of(self, r: int) -> float:
        """The maximum of split ``r``'s row, resident or not."""
        return self._maxima[r]

    def resident(self) -> Mapping[int, np.ndarray]:
        """A read-only view of the rows held, by split: reading it
        refills nothing and moves no row in the eviction order."""
        return MappingProxyType(self._rows)

    def valid_mask(self, r: int, fresh_row: np.ndarray) -> np.ndarray:
        """Boolean mask of valid endpoints: fresh value == original value.

        The boundary cell (index 0) is always equal (both zero), which
        is harmless: its value 0 never wins the score maximum.
        """
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
