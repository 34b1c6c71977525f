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
    "TransposedSplitView",
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
    def row_flags(self, i: int) -> np.ndarray | None:
        """Row ``i`` as booleans over global columns ``0..m``, or ``None``.

        ``None`` when the row holds no marked pair.  What a lockstep
        engine wants: every lane of a batch reads its own window of the
        one row, so the row is masked once for all of them.
        """

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

    def row_flags(self, i: int) -> np.ndarray | None:
        return self._flags[i] if self._row_counts[i] else None

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

    def row_flags(self, i: int) -> np.ndarray | None:
        return self.row_mask(i, 0, self.m)

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

    __slots__ = ("triangle", "r")

    def __init__(self, triangle: OverrideTriangle, r: int) -> None:
        if not 1 <= r < triangle.m:
            raise ValueError(f"split r={r} outside 1..{triangle.m - 1}")
        #: The viewed triangle and the split — public so a lockstep
        #: engine can recognise lanes that window one triangle
        #: (``OverrideProvider``) and read ``triangle.row_flags``.
        self.triangle = triangle
        self.r = r

    def row_mask(self, y: int) -> np.ndarray | None:
        return self.triangle.row_mask(y, self.r + 1, self.triangle.m)


class TransposedSplitView:
    """The triangle as the *transpose* of split ``r``'s matrix meets it.

    The transposed fill runs suffix positions ``r+1..r+rows`` down its
    rows and the prefix ``1..r`` across its columns, so its local cell
    ``(y, x)`` is global pair ``(x, r + y)``.  The masks are cut from
    the triangle's rows once, when the view is made: it serves one fill
    (the traceback matrix of an acceptance) and must not outlive a
    :meth:`OverrideTriangle.mark`.
    """

    __slots__ = ("_masks", "_marked")

    def __init__(self, triangle: OverrideTriangle, r: int, rows: int) -> None:
        if not (1 <= r and 1 <= rows and r + rows <= triangle.m):
            raise ValueError(f"split r={r} with {rows} rows outside 1..{triangle.m}")
        block = np.zeros((r, rows), dtype=bool)
        for i in range(1, r + 1):
            flags = triangle.row_flags(i)
            if flags is not None:
                block[i - 1] = flags[r + 1 : r + rows + 1]
        self._masks = np.ascontiguousarray(block.T)
        self._marked = self._masks.any(axis=1).tolist()

    def row_mask(self, y: int) -> np.ndarray | None:
        return self._masks[y - 1] if self._marked[y - 1] else None
