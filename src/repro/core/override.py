"""The override triangle (§3).

A triangular boolean structure over global residue-pair coordinates
``(i, j)`` with ``1 <= i < j <= m``: a marked pair means "this matched
pair already belongs to an accepted top alignment", and every split
matrix must force the corresponding cell to zero when realigning.

Two implementations share one interface:

* :class:`DenseOverrideTriangle` — an ``(m+1, m+1)`` boolean array.
  Row masks are O(1) slices; memory is O(m²) (the paper's default —
  "the triangle is sparse, it can be compressed if memory usage is an
  issue").
* :class:`SparseOverrideTriangle` — per-row sorted column sets; memory
  proportional to the number of marked pairs (O(k·n)), the compressed
  variant the paper sketches.

Both carry a ``version`` counter equal to the number of top alignments
applied — the ``AlignedWithTopNum`` the task queue compares against.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "OverrideTriangle",
    "DenseOverrideTriangle",
    "SparseOverrideTriangle",
    "SplitOverrideView",
]


class OverrideTriangle(ABC):
    """Interface of both triangle implementations."""

    def __init__(self, m: int) -> None:
        if m < 1:
            raise ValueError("sequence length must be positive")
        self.m = m
        self.version = 0

    @abstractmethod
    def mark(self, pairs: Iterable[tuple[int, int]]) -> None:
        """Mark matched pairs of a newly accepted top alignment.

        Increments :attr:`version` by one (one call per acceptance).
        """

    @abstractmethod
    def contains(self, i: int, j: int) -> bool:
        """Whether the pair ``(i, j)`` is marked."""

    @abstractmethod
    def row_mask(self, i: int, col_lo: int, col_hi: int) -> np.ndarray | None:
        """Mask over global columns ``col_lo..col_hi`` (inclusive) of row ``i``.

        Returns ``None`` when nothing in the range is marked.
        """

    @abstractmethod
    def rows_marked_beyond(self, row_hi: int, col_lo: int) -> list[int]:
        """Rows ``i <= row_hi`` holding a marked pair ``(i, j >= col_lo)``."""

    @abstractmethod
    def __iter__(self) -> Iterator[tuple[int, int]]:
        """Iterate all marked pairs."""

    @property
    @abstractmethod
    def marked_count(self) -> int:
        """Total number of marked pairs."""

    def view_for_split(self, r: int) -> "SplitOverrideView":
        """Adapter exposing this triangle to engines for split ``r``."""
        return SplitOverrideView(self, r)

    def _check(self, pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
        checked = []
        for i, j in pairs:
            if not (1 <= i < j <= self.m):
                raise ValueError(f"pair ({i}, {j}) outside triangle 1 <= i < j <= {self.m}")
            checked.append((i, j))
        return checked


class DenseOverrideTriangle(OverrideTriangle):
    """Boolean-matrix triangle with O(1) row-mask slicing."""

    def __init__(self, m: int) -> None:
        super().__init__(m)
        self._flags = np.zeros((m + 1, m + 1), dtype=bool)
        self._row_counts = np.zeros(m + 1, dtype=np.int64)

    def mark(self, pairs: Iterable[tuple[int, int]]) -> None:
        for i, j in self._check(pairs):
            if not self._flags[i, j]:
                self._flags[i, j] = True
                self._row_counts[i] += 1
        self.version += 1

    def contains(self, i: int, j: int) -> bool:
        return bool(self._flags[i, j])

    def row_mask(self, i: int, col_lo: int, col_hi: int) -> np.ndarray | None:
        if self._row_counts[i] == 0:
            return None
        mask = self._flags[i, col_lo : col_hi + 1]
        return mask if mask.any() else None

    def rows_marked_beyond(self, row_hi: int, col_lo: int) -> list[int]:
        block = self._flags[1 : row_hi + 1, col_lo:]
        return (np.flatnonzero(block.any(axis=1)) + 1).tolist()

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for i, j in zip(*np.nonzero(self._flags)):
            yield int(i), int(j)

    @property
    def marked_count(self) -> int:
        return int(self._row_counts.sum())


class SparseOverrideTriangle(OverrideTriangle):
    """Per-row column sets — O(marked) memory, the compressed variant."""

    def __init__(self, m: int) -> None:
        super().__init__(m)
        self._rows: dict[int, set[int]] = {}

    def mark(self, pairs: Iterable[tuple[int, int]]) -> None:
        for i, j in self._check(pairs):
            self._rows.setdefault(i, set()).add(j)
        self.version += 1

    def contains(self, i: int, j: int) -> bool:
        return j in self._rows.get(i, ())

    def row_mask(self, i: int, col_lo: int, col_hi: int) -> np.ndarray | None:
        cols = self._rows.get(i)
        if not cols:
            return None
        hits = [j for j in cols if col_lo <= j <= col_hi]
        if not hits:
            return None
        mask = np.zeros(col_hi - col_lo + 1, dtype=bool)
        mask[np.asarray(hits) - col_lo] = True
        return mask

    def rows_marked_beyond(self, row_hi: int, col_lo: int) -> list[int]:
        return sorted(
            i
            for i, cols in self._rows.items()
            if i <= row_hi and any(j >= col_lo for j in cols)
        )

    def __iter__(self) -> Iterator[tuple[int, int]]:
        for i in sorted(self._rows):
            for j in sorted(self._rows[i]):
                yield i, j

    @property
    def marked_count(self) -> int:
        return sum(len(cols) for cols in self._rows.values())


class SplitOverrideView:
    """Engine-facing view of the triangle for one split matrix.

    Split ``r`` aligns prefix positions ``1..r`` (matrix rows) against
    suffix positions ``r+1..m`` (matrix columns), so local cell
    ``(y, x)`` is global pair ``(y, r + x)``.
    """

    __slots__ = ("_triangle", "_r", "_m")

    def __init__(self, triangle: OverrideTriangle, r: int) -> None:
        if not 1 <= r < triangle.m:
            raise ValueError(f"split r={r} outside 1..{triangle.m - 1}")
        self._triangle = triangle
        self._r = r
        self._m = triangle.m

    def row_mask(self, y: int) -> np.ndarray | None:
        return self._triangle.row_mask(y, self._r + 1, self._m)

    def row_masks(self) -> dict[int, np.ndarray]:
        """Every non-empty :meth:`row_mask` of the split, keyed by row.

        What a lockstep engine wants: one pass over the triangle per
        lane instead of one call per lane per row.
        """
        lo, hi = self._r + 1, self._m
        rows = self._triangle.rows_marked_beyond(self._r, lo)
        return {y: self._triangle.row_mask(y, lo, hi) for y in rows}
