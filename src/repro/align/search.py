"""Batched database search — the paper's generalisation claim (§6).

"We claim that the way we perform parallel alignment using multimedia
extensions is also applicable to other application areas that require
many alignments, and thus to many bio-informatics applications. ... In
contrast to our application, the general case requires looking up
exchange values sequentially, slightly decreasing the parallel
performance."

This module is that general case: scoring one query against a database
of *unrelated* sequences, batched through the lane engine (which
already performs per-lane exchange gathers, exactly the sequential
lookup the paper predicts).  Database search needs the best score
*anywhere* in each matrix — not the bottom row, which is specific to
the top-alignment structure — so the lane sweep here tracks a running
per-lane maximum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..scoring.exchange import ExchangeMatrix
from ..scoring.gaps import GapPenalties
from ..sequences.sequence import Sequence
from .base import AlignmentProblem
from .rowstep import lockstep_rows, same_scoring
from .vector import iter_rows

__all__ = ["SearchHit", "best_local_score", "best_scores_batch", "search_database"]


def best_local_score(problem: AlignmentProblem) -> float:
    """Best local alignment score anywhere in one matrix (row sweep)."""
    if problem.rows == 0 or problem.cols == 0:
        return 0.0
    best = 0.0
    for _, row in iter_rows(problem):
        m = float(row.max())
        if m > best:
            best = m
    return best


def best_scores_batch(problems: list[AlignmentProblem]) -> list[float]:
    """Best-anywhere scores for a batch, computed in lane lockstep.

    The row step of :meth:`repro.align.lanes.LanesEngine.last_rows_batch`
    with a running per-lane maximum instead of harvested bottom rows; a
    lane stops contributing after its own last row.
    """
    best = [0.0] * len(problems)
    live = [i for i, p in enumerate(problems) if p.rows and p.cols]
    if live:
        lanes = [problems[i] for i in live]
        same_scoring(lanes)
        rows_l = np.array([p.rows for p in lanes])
        lane_best = np.zeros(len(lanes), dtype=np.float64)
        for y, row, floor in lockstep_rows(lanes):
            np.fmax(lane_best, row.max(axis=1) - floor, lane_best, where=y <= rows_l)
        for i, score in zip(live, lane_best.tolist()):
            best[i] = score
    return best


@dataclass(frozen=True)
class SearchHit:
    """One database match."""

    index: int
    id: str
    length: int
    score: float


def search_database(
    query: Sequence,
    database: list[Sequence],
    exchange: ExchangeMatrix,
    gaps: GapPenalties = GapPenalties(),
    *,
    lanes: int = 8,
    top: int | None = None,
) -> list[SearchHit]:
    """Rank database sequences by best local alignment score to ``query``.

    Matrices are processed in groups of ``lanes`` (sorted by size so
    group members have similar dimensions — the paper's prerequisite
    "that the matrices have more or less the same dimensions").
    """
    if lanes < 1:
        raise ValueError("lanes must be >= 1")
    order = sorted(range(len(database)), key=lambda i: len(database[i]))
    scores = [0.0] * len(database)
    for start in range(0, len(order), lanes):
        chunk = order[start : start + lanes]
        problems = [
            AlignmentProblem(query.codes, database[i].codes, exchange, gaps)
            for i in chunk
        ]
        for i, score in zip(chunk, best_scores_batch(problems)):
            scores[i] = score
    hits = [
        SearchHit(index=i, id=db.id, length=len(db), score=scores[i])
        for i, db in enumerate(database)
    ]
    hits.sort(key=lambda h: (-h.score, h.index))
    return hits[:top] if top is not None else hits
