"""Full alignment-matrix computation.

Engines normally keep only the previous row (the paper's memory
argument); the full matrix is materialised only when a traceback is
about to run — i.e. once per *accepted* top alignment, which the paper
notes is the sequential tail of each iteration.
"""

from __future__ import annotations

import numpy as np

from .base import AlignmentProblem
from .rowstep import lockstep_rows

__all__ = ["full_matrix", "matrix_for_texts"]


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


def matrix_for_texts(
    seq1: str,
    seq2: str,
    exchange,
    gaps,
) -> np.ndarray:
    """Convenience wrapper used by docs/tests: matrix from raw strings."""
    problem = AlignmentProblem.from_sequences(seq1, seq2, exchange, gaps)
    return full_matrix(problem)
