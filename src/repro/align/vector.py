"""Numpy row-vectorised engine.

The Figure 3 recurrence looks loop-carried because of the running
maximum ``MaxX``, but ``MaxX`` is only fed from the *previous* row, so
each row depends exclusively on the row above it.  The value ``MaxX``
holds when column ``x`` is evaluated is

    MaxX(x) = max_{k=1..x-1} ( M[y-1][k-1] - open - ext * (x - k) )

which, after the affine substitution ``B[k] = M[y-1][k-1] - open +
ext*k``, collapses to a prefix maximum::

    MaxX(x) = prefix_max(B)[x-1] - ext * x

i.e. one ``np.maximum.accumulate`` per row.  ``MaxY`` is an ordinary
elementwise update across columns.  The whole row is therefore O(1)
numpy calls — the Python-level analogue of computing a full SIMD vector
per instruction, with the vector register as wide as the row.

Scores are bit-identical to :class:`~repro.align.scalar.ScalarEngine`
for integral inputs (all operations stay exact in float64).
"""

from __future__ import annotations

import numpy as np

from .base import AlignmentEngine, AlignmentProblem

__all__ = ["VectorEngine", "iter_rows"]


def iter_rows(problem: AlignmentProblem):
    """Yield matrix rows ``(y, M[y, 0..cols])`` for ``y = 1..rows``.

    The workhorse shared by :class:`VectorEngine` (which keeps only the
    last row) and :func:`repro.align.matrix.full_matrix` (which stacks
    them).  Rows are emitted as float64 arrays of length ``cols + 1``
    with the boundary column at index 0; the yielded array is reused
    between iterations, so callers that keep rows must copy.
    """
    rows, cols = problem.rows, problem.cols
    open_, ext = problem.gaps.open_, problem.gaps.extend
    override = problem.override
    # Exchange columns for the horizontal sequence: a zero-copy query
    # profile view when the problem carries one, else a one-off gather.
    # Each row's exchange values are then a plain row view (the vector
    # analogue of the paper's shared exchange lookup across lanes).
    sub = problem.substitution_rows()

    prev = np.zeros(cols + 1, dtype=np.float64)
    curr = np.zeros(cols + 1, dtype=np.float64)
    max_y = np.full(cols, -np.inf, dtype=np.float64)
    # Decay offsets for the prefix-max trick, hoisted out of the loop.
    k_up = ext * np.arange(1.0, cols + 1.0)  # ext * k     for k = 1..cols
    x_dn = ext * np.arange(2.0, cols + 1.0)  # ext * x     for x = 2..cols
    inner = np.empty(cols, dtype=np.float64)
    b = np.empty(cols, dtype=np.float64)

    for y in range(1, rows + 1):
        diag = prev[:cols]  # diag[x-1] = M[y-1][x-1]
        erow = sub[problem.seq1[y - 1]]

        # MaxX via prefix max of B[k] = diag[k-1] - open + ext*k.
        np.add(diag, k_up, out=b)
        b -= open_
        np.maximum.accumulate(b, out=b)
        # inner = max(MaxX, MaxY, diag), assembled in place.
        np.maximum(max_y, diag, out=inner)
        if cols > 1:
            np.maximum(inner[1:], b[:-1] - x_dn, out=inner[1:])

        np.add(inner, erow, out=curr[1:])
        np.maximum(curr, 0.0, out=curr)
        if override is not None:
            mask = override.row_mask(y)
            if mask is not None:
                curr[1:][mask] = 0.0

        # MaxY[x] <- max(diag - open, MaxY[x]) - ext, for the next row.
        np.maximum(max_y, diag - open_, out=max_y)
        max_y -= ext

        yield y, curr
        prev, curr = curr, prev


class VectorEngine(AlignmentEngine):
    """One matrix at a time, each row as a handful of numpy operations."""

    name = "vector"

    def last_row(self, problem: AlignmentProblem) -> np.ndarray:
        if problem.rows == 0 or problem.cols == 0:
            return np.zeros(problem.cols + 1, dtype=np.float64)
        gate = problem.prune
        cutoffs = gate.row_cutoffs() if gate is not None else None
        row = np.zeros(problem.cols + 1, dtype=np.float64)
        if cutoffs is None:
            for _, row in iter_rows(problem):
                pass
            return row.copy()
        best = 0.0
        for y, row in iter_rows(problem):
            row_max = row.max()
            if row_max > best:
                best = float(row_max)
            if best <= cutoffs[y]:
                # Provably below the floor: the unfilled rows stay
                # unfilled and the driver records gate.bound instead.
                gate.record_row_prune(y, best)
                return np.zeros(problem.cols + 1, dtype=np.float64)
        return row.copy()
