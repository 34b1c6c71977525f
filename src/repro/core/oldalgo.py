"""The old (1993-style) top-alignment search — the Table 1 baseline.

The original Repro implementation lacked the two ideas that make the
new algorithm O(n³):

* no best-first queue with stale-score upper bounds — after every
  accepted top alignment it realigns **all** ``m - 1`` split pairs
  again, and
* no cached first-pass bottom rows — shadow alignments are rejected by
  the expensive variant sketched in Appendix A: every split is aligned
  **twice** per round, with and without the override triangle, and only
  endpoints scoring equally in both are valid.

One round therefore costs ``2 (m-1)`` alignments of Θ(r (m-r)) cells —
Θ(m³) — and finding ``k`` top alignments costs Θ(k m³): the O(n⁴)
behaviour of Table 1 (the paper's k grows with sequence length).

The *output* is identical to :func:`repro.core.topalign.find_top_alignments`
— the paper's central equivalence claim — because "aligned without an
override triangle" is exactly the quantity the new algorithm caches.
"""

from __future__ import annotations

import time

import numpy as np

from ..align.base import DEFAULT_ENGINE, AlignmentProblem, get_engine
from ..align.matrix import full_matrix
from ..align.traceback import traceback
from ..scoring.exchange import ExchangeMatrix
from ..scoring.gaps import GapPenalties
from ..sequences.sequence import Sequence
from .override import DenseOverrideTriangle
from .result import RunStats, TopAlignment

__all__ = ["old_find_top_alignments"]


def old_find_top_alignments(
    sequence: Sequence,
    k: int,
    exchange: ExchangeMatrix,
    gaps: GapPenalties = GapPenalties(),
    *,
    engine: str = DEFAULT_ENGINE,
    min_score: float = 0.0,
) -> tuple[list[TopAlignment], RunStats]:
    """Old-algorithm equivalent of :func:`find_top_alignments`.

    Same signature and same results; quartic work.  ``engine`` selects
    the per-alignment kernel so that Table 1 compares algorithms, not
    instruction tiers.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(sequence) < 2:
        raise ValueError("sequence must have at least 2 residues")

    m = len(sequence)
    codes = sequence.codes
    eng = get_engine(engine)
    triangle = DenseOverrideTriangle(m)
    found: list[TopAlignment] = []
    stats = RunStats()
    stats.realignments_per_top.append(0)

    def engine_row(problem: AlignmentProblem) -> np.ndarray:
        start = time.perf_counter()
        row = eng.last_row(problem)
        stats.engine_seconds += time.perf_counter() - start
        stats.alignments += 1
        stats.cells += problem.cells
        return row

    while len(found) < k:
        best_score = -np.inf
        best_r = -1
        best_end = -1
        for r in range(1, m):
            plain = AlignmentProblem(codes[:r], codes[r:], exchange, gaps)
            overridden = AlignmentProblem(
                codes[:r], codes[r:], exchange, gaps, triangle.view_for_split(r)
            )
            row_plain = engine_row(plain)
            if triangle.version == 0:
                row_over = row_plain
            else:
                row_over = engine_row(overridden)
                stats.realignments += 1
                stats.realignments_per_top[-1] += 1
            valid = row_over == row_plain
            candidates = np.where(valid, row_over, -np.inf)
            end_x = int(np.argmax(candidates))
            score = float(candidates[end_x])
            if score > best_score:
                best_score, best_r, best_end = score, r, end_x
        if best_score <= min_score:
            break

        problem = AlignmentProblem(
            codes[:best_r],
            codes[best_r:],
            exchange,
            gaps,
            triangle.view_for_split(best_r),
        )
        matrix = full_matrix(problem)
        stats.tracebacks += 1
        path = traceback(problem, matrix, problem.rows, best_end)
        pairs = tuple((step.y, best_r + step.x) for step in path.pairs)
        alignment = TopAlignment(
            index=len(found), r=best_r, score=best_score, pairs=pairs
        )
        triangle.mark(pairs)
        found.append(alignment)
        stats.realignments_per_top.append(0)

    return found, stats
