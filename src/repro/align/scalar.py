"""Pure-Python reference engine — the paper's "conventional" baseline.

This is a direct transliteration of Figure 3's ``ComputeMatrix()``
pseudo code, one cell at a time, with the override-triangle hook from
§3.  It exists for two reasons:

* as the executable specification every vectorised engine is tested
  against (bit-identical scores), and
* as the "conventional instruction set" row of Table 2 — the thing the
  SIMD engines are benchmarked relative to.

It is intentionally *not* optimised beyond hoisting attribute lookups.
"""

from __future__ import annotations

import numpy as np

from .base import NEG_INF, AlignmentEngine, AlignmentProblem

__all__ = ["ScalarEngine"]


class ScalarEngine(AlignmentEngine):
    """Cell-by-cell evaluation of the Figure 3 recurrence."""

    name = "scalar"

    def last_row(self, problem: AlignmentProblem) -> np.ndarray:
        rows, cols = problem.rows, problem.cols
        if rows == 0 or cols == 0:
            return np.zeros(cols + 1, dtype=np.float64)

        exchange = problem.exchange.scores
        open_, ext = problem.gaps.open_, problem.gaps.extend
        seq1, seq2 = problem.seq1, problem.seq2
        override = problem.override

        # Only the previous row is stored (the paper's memory argument):
        # `prev[x]` is M[y-1][x], `curr[x]` is M[y][x].
        prev = [0.0] * (cols + 1)
        curr = [0.0] * (cols + 1)
        max_y = [NEG_INF] * (cols + 1)

        for y in range(1, rows + 1):
            erow = exchange[seq1[y - 1]]
            mask = override.row_mask(y) if override is not None else None
            max_x = NEG_INF
            # repro-lint: allow[RPR001] intentional: this engine IS the
            # per-cell "conventional instruction set" baseline of Table 2
            for x in range(1, cols + 1):
                diag = prev[x - 1]
                value = erow[seq2[x - 1]] + max(max_x, max_y[x], diag)
                if value < 0.0:
                    value = 0.0
                if mask is not None and mask[x - 1]:
                    value = 0.0
                curr[x] = value
                seed = diag - open_
                max_x = (seed if seed > max_x else max_x) - ext
                if seed > max_y[x]:
                    max_y[x] = seed - ext
                else:
                    max_y[x] -= ext
            prev, curr = curr, prev

        out = np.array(prev, dtype=np.float64)
        out[0] = 0.0
        return out
