"""Full alignment-matrix computation.

Engines normally keep only the previous row (the paper's memory
argument); the full matrix is materialised only when a traceback is
about to run — i.e. once per *accepted* top alignment, which the paper
notes is the sequential tail of each iteration.  When the last fill of
the matrix saved rows, :class:`SavedRowsMatrix` fills it from the bottom
up instead, only as far as the traceback climbs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .base import AlignmentProblem, Resume
from .rowstep import SNAPSHOT_ROWS, lockstep_rows

__all__ = ["SavedRowsMatrix", "full_matrix", "matrix_for_texts"]


def full_matrix(problem: AlignmentProblem, dtype=np.float64) -> np.ndarray:
    """The complete ``(rows+1) x (cols+1)`` score matrix of Equation 1.

    Row 0 and column 0 are the zero boundary, so ``matrix[y, x]``
    matches the paper's ``M[y][x]`` indices directly (Figure 2).
    """
    rows, cols = problem.rows, problem.cols
    matrix = np.zeros((rows + 1, cols + 1), dtype=dtype)
    if rows == 0 or cols == 0:
        return matrix
    # Rows are stacked as the row step yields them (shifted, narrow) and
    # unshifted all at once: one copy per row instead of three passes.
    floors, stacked = [0], None
    for y, row, floor in lockstep_rows([problem]):
        if stacked is None:
            stacked = np.zeros((rows + 1, cols + 1), dtype=row.dtype)
        stacked[y] = row[0]
        floors.append(floor)
    np.subtract(stacked, np.array(floors)[:, None], out=matrix)
    return matrix


class SavedRowsMatrix:
    """The matrix of :func:`full_matrix`, filled upward on demand.

    ``saved[k]`` holds the two vectors a fill of ``problem`` carried out
    of row ``(k + 1) * SNAPSHOT_ROWS`` (:class:`~repro.align.base.Resume`),
    and the first ``count`` of them are exact for ``problem``.  Rows
    :attr:`top` to the bottom of :attr:`matrix` are filled — at first
    those from the deepest of them down — and :meth:`extend` fills the
    block above.  A row resumed from saved vectors is the row a fill from
    the top computes, byte for byte (DESIGN.md, "Resuming a
    realignment"), so a traceback that only reads filled rows follows
    the path it follows on the whole matrix.
    """

    def __init__(
        self, problem: AlignmentProblem, saved: np.ndarray, count: int
    ) -> None:
        self.problem = problem
        self.saved = saved
        self.matrix = np.zeros((problem.rows + 1, problem.cols + 1))
        self.top = problem.rows + 1
        self._fill(count)

    def extend(self) -> int:
        """Fill the rows up to the next saved row above; the new top."""
        self._fill(self.top // SNAPSHOT_ROWS - 1)
        return self.top

    def _fill(self, k: int) -> None:
        """Fill rows ``k * SNAPSHOT_ROWS`` to ``top - 1``."""
        start, stop = k * SNAPSHOT_ROWS, self.top - 1
        resume = None
        if k:
            vectors = self.saved[k - 1]
            resume = Resume(start, vectors)
            ext = self.problem.gaps.extend
            np.subtract(vectors[0], ext * start, out=self.matrix[start, 1:])
        for y, row, floor in lockstep_rows([replace(self.problem, resume=resume)]):
            np.subtract(row[0], floor, out=self.matrix[y])
            if y == stop:
                break
        self.top = start


def matrix_for_texts(
    seq1: str,
    seq2: str,
    exchange,
    gaps,
) -> np.ndarray:
    """Convenience wrapper used by docs/tests: matrix from raw strings."""
    problem = AlignmentProblem.from_sequences(seq1, seq2, exchange, gaps)
    return full_matrix(problem)
