"""Traceback of Equation 1 alignments.

Given a full score matrix, :func:`traceback` reconstructs the chain of
matched residue pairs ending at a chosen bottom-row cell, "in reverse
order ... in the direction of the upper left-hand-side corner" (§2.1).

Under Equation 1 every path cell is a *matched pair* — gap moves jump
from ``(y, x)`` to a cell in row ``y-1`` (horizontal gap) or column
``x-1`` (vertical gap), consuming exactly one residue of each sequence
plus the gap.  The returned path is therefore exactly the set of cells
the override triangle must mark after a top alignment is accepted (§3).

Matrix values are always >= 0 (local alignment), so the inner maximum
``max(MaxX, MaxY, diag)`` is >= 0 whenever the diagonal neighbour
exists; a path starts at the cell whose inner maximum is a zero
diagonal (boundary or zero cell).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .base import AlignmentProblem

__all__ = [
    "TracebackStep",
    "AlignmentPath",
    "traceback",
    "render_alignment",
    "alignment_identity",
]


@dataclass(frozen=True)
class TracebackStep:
    """One matched pair on an alignment path (local 1-based coordinates)."""

    y: int
    x: int


@dataclass(frozen=True)
class AlignmentPath:
    """A reconstructed local alignment.

    ``pairs`` lists the matched cells from first to last (top-left to
    bottom-right); ``score`` is the matrix value at the final cell.
    """

    pairs: tuple[TracebackStep, ...]
    score: float

    @property
    def start(self) -> TracebackStep:
        """First matched pair."""
        return self.pairs[0]

    @property
    def end(self) -> TracebackStep:
        """Last matched pair (the traceback's starting cell)."""
        return self.pairs[-1]

    def __len__(self) -> int:
        return len(self.pairs)


def traceback(
    problem: AlignmentProblem,
    matrix: np.ndarray,
    end_y: int,
    end_x: int,
    *,
    top: int = 0,
    extend: Callable[[], int] | None = None,
) -> AlignmentPath:
    """Reconstruct the alignment ending at ``matrix[end_y, end_x]``.

    Ties are broken deterministically: diagonal first, then the
    shortest horizontal gap, then the shortest vertical gap — so
    equivalent optima (like the paper's top alignments 1 and 2 in
    Figure 4) always resolve the same way.  Rows above ``top`` are not
    filled yet: the walk calls ``extend()``, which fills more of them
    and returns the new top, before it reads one
    (:class:`~repro.align.matrix.SavedRowsMatrix`).
    """
    exchange = problem.exchange.scores
    open_, ext = problem.gaps.open_, problem.gaps.extend
    seq1, seq2 = problem.seq1, problem.seq2

    score = float(matrix[end_y, end_x])
    if score <= 0.0:
        raise ValueError(
            f"cannot trace back from a non-positive cell ({end_y}, {end_x})"
        )

    pairs: list[TracebackStep] = []
    y, x = end_y, end_x
    while True:
        pairs.append(TracebackStep(y, x))
        e = float(exchange[seq1[y - 1], seq2[x - 1]])
        target = float(matrix[y, x]) - e  # the inner max that produced this cell
        if target <= 0.0:
            # Started here: the diagonal contribution was a zero
            # (boundary, overridden or genuinely zero cell).
            break
        while y - 1 < top:
            top = extend()

        # 1. Diagonal (no gap).
        if matrix[y - 1, x - 1] == target:
            y, x = y - 1, x - 1
            if y == 0 or x == 0 or matrix[y, x] == 0.0:
                # Walked onto the boundary/zero start cell; the pair list
                # is complete. (matrix[y, x] > 0 continues the loop.)
                break
            continue

        # 2. Horizontal gap: predecessor (y-1, c) with c <= x-2,
        #    penalty open + ext * (x - 1 - c); shortest gap first.
        found = False
        for c in range(x - 2, -1, -1):
            if matrix[y - 1, c] - (open_ + ext * (x - 1 - c)) == target:
                y, x = y - 1, c
                found = True
                break
        if found:
            if matrix[y, x] == 0.0 or x == 0:
                break
            continue

        # 3. Vertical gap: predecessor (r, x-1) with r <= y-2,
        #    penalty open + ext * (y - 1 - r); shortest gap first.
        for r in range(y - 2, -1, -1):
            while r < top:
                top = extend()
            if matrix[r, x - 1] - (open_ + ext * (y - 1 - r)) == target:
                y, x = r, x - 1
                found = True
                break
        if not found:
            raise AssertionError(
                f"inconsistent matrix: no predecessor explains cell ({y}, {x})"
            )
        if matrix[y, x] == 0.0 or y == 0:
            break

    pairs.reverse()
    return AlignmentPath(tuple(pairs), score)


def alignment_identity(problem: AlignmentProblem, path: AlignmentPath) -> float:
    """Fraction of aligned columns (matches + gaps) that are identical
    residue pairs.

    The paper's §1 framing — "frequently, only 10–25 % of the amino
    acids in a repeated protein subsequence are conserved" — makes this
    the natural summary statistic of a top alignment.
    """
    if not path.pairs:
        return 0.0
    matches = sum(
        1
        for step in path.pairs
        if problem.seq1[step.y - 1] == problem.seq2[step.x - 1]
    )
    columns = len(path.pairs)
    prev = None
    for step in path.pairs:
        if prev is not None:
            columns += (step.y - prev.y - 1) + (step.x - prev.x - 1)
        prev = step
    return matches / columns


def render_alignment(
    problem: AlignmentProblem, path: AlignmentPath
) -> tuple[str, str, str]:
    """Pretty-print a path as the paper's three-line superposition.

    Returns ``(top, middle, bottom)`` where the middle line carries
    ``|`` for matches, spaces for mismatches, and gaps appear as ``-``
    padding in the opposite sequence.
    """
    alphabet = problem.exchange.alphabet
    s1 = alphabet.decode(problem.seq1)
    s2 = alphabet.decode(problem.seq2)
    top: list[str] = []
    mid: list[str] = []
    bot: list[str] = []
    prev: TracebackStep | None = None
    for step in path.pairs:
        if prev is not None:
            gap_y = step.y - prev.y - 1
            gap_x = step.x - prev.x - 1
            # Under Equation 1 at most one of these is positive per move.
            for k in range(gap_y):
                top.append(s1[prev.y + k])
                mid.append(" ")
                bot.append("-")
            for k in range(gap_x):
                top.append("-")
                mid.append(" ")
                bot.append(s2[prev.x + k])
        a, b = s1[step.y - 1], s2[step.x - 1]
        top.append(a)
        mid.append("|" if a == b else " ")
        bot.append(b)
        prev = step
    return "".join(top), "".join(mid), "".join(bot)
