"""Exact block bounds (ALAE-style): which first passes happen at all.

The best-first heap exploits stale scores as upper bounds (§3), but a
split that has never been aligned has no score, so the paper starts it
at ``+inf`` and every one of the ``m - 1`` splits gets an O(n²) first
pass.  This module bounds a whole *block* of neighbouring splits
``first <= r < stop`` exactly, with one matrix fill: rows
``S[1..stop-1]`` against columns ``S[first+1..m]``, cells whose global
column is not past their global row forced to zero (the
:class:`Staircase`).  Every chain of split ``r``'s own matrix (pairs
``i <= r < j``) is a chain of the block matrix, and Equation 1 is
monotone in the predecessors a cell may extend, so row ``r`` of the
block matrix dominates split ``r``'s bottom row cell for cell and its
maximum dominates the split's first-pass score — and, because the
override triangle and the shadow rule only ever lower scores, every
realignment (DESIGN.md, "Exact block bounds", has the argument in
full).  A block costs about one split fill and bounds ``stop - first``
splits.

The request rides on the block's :class:`~repro.align.base.AlignmentProblem`
as its ``prune`` gate: a :class:`PruneGate` names the rows whose maxima
the engine is to leave in :attr:`PruneGate.bounds`.  The lockstep
engines honour it (``lanes`` harvests a batch of blocks with one
reduction per row, ``vector`` is its one-lane instance); an engine that
ignores it (``scalar``, the unbounded reference) leaves ``bounds`` at
``None`` and the driver falls back to whatever seeds it has.  A bound
is only ever a never-aligned task's *starting heap score*
(:meth:`repro.core.topalign.TopAlignmentState.make_tasks`): acceptance
needs a fresh alignment, so accepted tops are bit-identical with
bounds on or off, and a split whose bound never tops the heap is never
filled.  No fill is ever cut short.
"""

from __future__ import annotations

import numpy as np

from .profile import QueryProfile

__all__ = ["PruneContext", "PruneGate", "Staircase"]


class Staircase:
    """The override of a block problem whose columns start at ``S[first+1]``.

    Local cell ``(y, x)`` is global pair ``(y, first + x)``; it is
    forced to zero when ``first + x <= y`` — below the staircase a cell
    pairs a residue with itself or an earlier one, which no split's
    matrix contains.  Rows ``y <= first`` are untouched.
    :func:`~repro.align.rowstep.lockstep_rows` applies all the
    staircases of a batch as one array operation per row; ``row_mask``
    is the generic :class:`~repro.align.base.OverrideProvider` form.
    """

    __slots__ = ("first", "cols")

    def __init__(self, first: int, cols: int) -> None:
        self.first = first
        self.cols = cols

    def row_mask(self, y: int) -> np.ndarray | None:
        if y <= self.first:
            return None
        return np.arange(1, self.cols + 1) <= y - self.first


class PruneGate:
    """A harvest request: the maxima of matrix rows ``first..stop-1``.

    An engine that honours it sets :attr:`bounds` to those ``stop -
    first`` row maxima (float64) — on a block problem, the exact upper
    bounds of splits ``first..stop-1``.
    """

    __slots__ = ("first", "stop", "bounds")

    #: No fill is cut short any more; delegating engines (the
    #: benchmark's cell counter) still ask whether one was.
    pruned = False

    def __init__(self, first: int, stop: int) -> None:
        self.first = first
        self.stop = stop
        self.bounds: np.ndarray | None = None


class PruneContext:
    """The bound requests of one sequence plus the run's score floor.

    One context per :class:`~repro.core.topalign.TopAlignmentState` that
    searches with bounds (``prune=True``).

    Parameters
    ----------
    profile:
        The sequence's precomputed substitution gather.
    floor:
        The run's ``min_score`` — a split whose bound is at or below it
        is retired unfilled.
    """

    __slots__ = ("profile", "floor")

    def __init__(self, profile: QueryProfile, *, floor: float = 0.0) -> None:
        self.profile = profile
        self.floor = float(floor)

    def configure(self, min_score: float) -> None:
        """Set ``floor`` for a run with ``min_score``."""
        self.floor = float(max(min_score, 0.0))

    def gate_for(self, first: int, stop: int | None = None) -> PruneGate:
        """The harvest request of block ``first <= r < stop``.

        ``stop`` defaults to ``first + 1``: a block of one is the
        split's own problem and its bound its first-pass score.
        """
        stop = first + 1 if stop is None else stop
        if not 1 <= first < stop <= len(self.profile):
            raise ValueError(
                f"split block [{first}, {stop}) outside 1..{len(self.profile) - 1}"
            )
        return PruneGate(first, stop)
