"""Numpy row-vectorised engine: one matrix, each row O(1) array calls.

The one-lane instance of the row step in :mod:`repro.align.rowstep`
(where the prefix-max form of ``MaxX`` is derived), unshifted back to
true coordinates as float64.  Scores are bit-identical to
:class:`~repro.align.scalar.ScalarEngine` for integral inputs (integer
work rows, or float64 where every operation stays exact).
"""

from __future__ import annotations

import numpy as np

from .base import AlignmentEngine, AlignmentProblem
from .rowstep import lockstep_rows

__all__ = ["VectorEngine", "iter_rows"]


def iter_rows(problem: AlignmentProblem):
    """Yield matrix rows ``(y, M[y, 0..cols])`` for ``y = 1..rows``.

    The workhorse of :class:`VectorEngine` (which keeps only the last
    row) and :func:`~repro.align.search.best_local_score`.  Rows are
    emitted as float64 arrays of length ``cols + 1`` with the boundary
    column at index 0; the yielded array is reused between iterations,
    so callers that keep rows must copy.  A problem with a resume
    request starts after its resume row
    (:func:`~repro.align.rowstep.lockstep_rows`).
    """
    if problem.rows == 0:
        return
    true_row = np.empty(problem.cols + 1, dtype=np.float64)
    for y, row, floor in lockstep_rows([problem]):
        np.subtract(row[0], floor, out=true_row)
        yield y, true_row


class VectorEngine(AlignmentEngine):
    """One matrix at a time, each row as a handful of numpy operations."""

    name = "vector"

    def last_row(self, problem: AlignmentProblem) -> np.ndarray:
        gate = problem.prune
        row = np.zeros(problem.cols + 1, dtype=np.float64)
        maxima = np.zeros(problem.rows + 1, dtype=np.float64)
        for y, row in iter_rows(problem):
            if gate is not None and y >= gate.first:
                maxima[y] = row.max()
        if gate is not None:
            gate.bounds = maxima[gate.first : gate.stop]
        return row.copy()
