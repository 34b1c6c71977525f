"""Exact in-kernel pruning bounds (ALAE-style).

The best-first heap already exploits stale scores as *cross-task* upper
bounds (§3); this module pushes the same discipline *into* the matrix
fill.  From the :class:`~repro.align.profile.QueryProfile` two bound
tables are derived once per sequence:

* ``sufmax[a, j] = max_{x >= j} max(P[a, x], 0)`` — the most a row of
  residue ``a`` can contribute to any alignment using columns ``>= j``
  (each matrix row matches at most one column, and gap penalties only
  subtract);
* ``col_suffix[j] = sum_{x >= j} max_a max(P[a, x], 0)`` — the most the
  columns ``>= j`` can contribute in total (each column matches at most
  one row).

From these, split ``r`` gets two provable upper bounds on its task
score (first pass *and* realignment — the override triangle and the
Appendix A shadow test only ever lower scores, so profile-level bounds
dominate both):

* **lane bound** (before any cell is filled):
  ``B0 = min(sum of per-row gains, col_suffix[r])``.  It depends on
  nothing but the split, so it is computed for every split at once
  (:attr:`PruneContext.lane_bounds`) and enters the search as each
  task's *starting heap score* — exactly like an index seed bound: a
  split whose ``B0`` never tops the heap is never aligned, one at or
  below ``min_score`` is retired by the exhaustion test unaligned;
* **row bound** (after filling row ``y``):
  ``best-so-far + rem[y]`` where ``rem[y]`` sums the per-row gains of
  the unfilled rows ``y+1..r`` (induction over the recurrence: every
  cell's predecessor lives in an earlier row, and predecessors are
  debited non-negative gap penalties).

**Soundness of the skip.**  A pruned alignment never produces a score —
it records its upper bound ``B`` as the task's heap score and leaves
the task *stale* (``aligned_with`` untouched, no bottom row cached), so
acceptance — which requires a fresh alignment — can never fire on a
bound.  Accepted tops therefore stay bit-identical by the same argument
that covers stale heap scores.  The row bound prunes only
against the static ``floor`` (the run's ``min_score``): such prunes are
*terminal* (the task sinks below the acceptance cut-off and the loop's
exhaustion test retires it), so a partially filled matrix is never
refilled from scratch; with a floor of zero nothing can sink that far
and no gates are made at all.

The :class:`~repro.analysis.invariants.InvariantChecker` (under
``REPRO_CHECK_INVARIANTS``) additionally recomputes a sampled subset of
pruned fills exhaustively and asserts each recorded bound dominated the
true score.
"""

from __future__ import annotations

import numpy as np

from .profile import QueryProfile

__all__ = ["PruneContext", "PruneGate"]


class PruneContext:
    """Per-sequence bound tables plus the run's score floor.

    One context is built per :class:`~repro.core.topalign.TopAlignmentState`
    (O(n_symbols · m)); the state seeds its tasks from
    :attr:`lane_bounds` and hands per-split :class:`PruneGate` objects
    to the engines via :attr:`~repro.align.base.AlignmentProblem.prune`.

    Parameters
    ----------
    profile:
        The sequence's precomputed substitution gather.
    floor:
        The run's ``min_score`` — scores at or below it are never
        reported, so bounds at or below it prune terminally.
    """

    __slots__ = (
        "profile", "floor", "gain", "col_suffix", "sufmax", "codes", "lane_bounds",
    )

    def __init__(self, profile: QueryProfile, *, floor: float = 0.0) -> None:
        self.profile = profile
        m = len(profile)
        # Positive part of the gather: a cell can contribute at most its
        # substitution score, and never less than 0 (local alignments
        # restart rather than go negative).
        positive = np.maximum(profile.scores, 0.0)
        #: Per-column best possible contribution, ``max_a max(P[a, x], 0)``.
        self.gain = positive.max(axis=0)
        col_suffix = np.zeros(m + 1, dtype=np.float64)
        np.cumsum(self.gain[::-1], out=col_suffix[:m][::-1])
        #: ``col_suffix[j] = sum_{x >= j} gain[x]`` (length m + 1).
        self.col_suffix = col_suffix
        sufmax = np.zeros((positive.shape[0], m + 1), dtype=np.float64)
        np.maximum.accumulate(positive[:, ::-1], axis=1, out=sufmax[:, :m][:, ::-1])
        #: ``sufmax[a, j] = max_{x >= j} max(P[a, x], 0)``.
        self.sufmax = sufmax
        #: Residue codes as gather indices (shared by every gate).
        self.codes = profile.codes.astype(np.int64)
        # Split r's rows hold residues codes[:r]; summing their gains
        # sufmax[code, r] by residue needs only how often each residue
        # occurs in the prefix — one cumulative count table.
        counts = np.zeros_like(sufmax)
        counts[self.codes, np.arange(1, m + 1)] = 1.0
        np.cumsum(counts, axis=1, out=counts)
        #: ``lane_bounds[r] = B0`` of split ``r`` (length m + 1).
        self.lane_bounds = np.minimum((counts * sufmax).sum(axis=0), col_suffix)
        self.floor = float(floor)

    def configure(self, min_score: float) -> None:
        """Set ``floor`` for a run with ``min_score``."""
        self.floor = float(max(min_score, 0.0))

    def gate_for(self, r: int, *, cap: float = np.inf) -> "PruneGate":
        """A fresh per-fill gate for split ``r`` (rows 1..r, cols r+1..m).

        ``cap`` is the task's previous heap score — a valid upper bound
        on the fresh score (stale scores are upper bounds; a seed bound
        is one by construction; ``+inf`` for never-touched tasks).
        """
        return PruneGate(self, r, cap=cap)


class PruneGate:
    """One fill's pruning state: bound tables sliced to split ``r``.

    Engines consult :meth:`row_cutoffs` / :meth:`lane_cutoffs`, record a
    hit through :meth:`record_row_prune` and stop filling the moment
    the bound sinks to the floor.  After a prune, :attr:`bound`
    carries the provable upper bound the driver records as the task's
    (stale) heap score, and :attr:`cells_filled`/:attr:`pruned_cells`
    split the matrix area into evaluated and skipped work for
    ``RunStats``.
    """

    __slots__ = (
        "context", "r", "rows", "cols", "cap", "rem",
        "pruned", "bound", "cells_filled", "pruned_cells",
    )

    #: Tail fraction below which :meth:`row_cutoffs` reports "not worth
    #: gating": when fewer than this fraction of rows could ever prune,
    #: the per-row bookkeeping costs more than the skipped cells.  The
    #: bookkeeping (a per-lane reduction and four small calls) is half a
    #: lockstep row and a lane-mate that cannot prune keeps the batch
    #: running anyway: on ``dna_scan_dense`` of ``benchmarks/e2e`` 0.15
    #: made a pass 15-30 % slower than no gates at all, 0.7 within 5 %
    #: (``check_ratios.py`` fails at 10 %).
    MIN_PRUNABLE_TAIL = 0.7

    def __init__(self, context: PruneContext, r: int, *, cap: float = np.inf) -> None:
        m = len(context.profile)
        if not 1 <= r < m:
            raise ValueError(f"split r={r} outside 1..{m - 1}")
        self.context = context
        self.r = r
        self.rows = r
        self.cols = m - r
        self.cap = float(cap)
        # Per-row gains for rows 1..r: row y holds residue codes[y-1]
        # and may only match columns >= r of the profile.
        rowgain = context.sufmax[context.codes[:r], r]
        rem = np.zeros(r + 1, dtype=np.float64)
        np.cumsum(rowgain[::-1], out=rem[:r][::-1])
        #: ``rem[y] = sum of gains of the unfilled rows y+1..r``.
        self.rem = rem
        self.pruned = False
        self.bound = 0.0
        self.cells_filled = 0
        self.pruned_cells = 0

    # -- in-fill prunes (floor-only, therefore terminal) -------------------

    def _cutoff_array(self) -> np.ndarray | None:
        floor = self.context.floor
        # rem is non-increasing, so the prunable tail starts at the
        # first y with rem[y] <= floor (best >= 0 always).
        first = int(np.searchsorted(-self.rem, -floor))
        if self.rows - first < self.rows * self.MIN_PRUNABLE_TAIL:
            return None
        cutoffs = floor - self.rem
        cutoffs[self.rows] = -np.inf
        return cutoffs

    def row_cutoffs(self) -> list[float] | None:
        """Per-row prune cutoffs for tight fill loops, or ``None``.

        ``cutoffs[y] = floor - rem[y]``: after filling row ``y`` the
        fill may stop iff its running best cell value is ``<=
        cutoffs[y]`` — the plain-float restatement of the row bound
        (``best + rem[y] <= floor``), so engines can keep the per-row
        work to one reduction and one comparison.  ``cutoffs[rows]`` is
        ``-inf`` (a completed fill is returned, never pruned).  Returns
        ``None`` when no prefix of the fill can possibly prune (every
        cutoff negative) or the prunable tail is too short to pay for
        the bookkeeping (:data:`MIN_PRUNABLE_TAIL`); callers then run
        ungated.
        """
        cutoffs = self._cutoff_array()
        return None if cutoffs is None else cutoffs.tolist()

    @staticmethod
    def lane_cutoffs(
        gates: "list[PruneGate | None]", max_rows: int
    ) -> np.ndarray | None:
        """:meth:`row_cutoffs` of a lockstep batch as one matrix, or ``None``.

        Column ``g`` of the ``(max_rows + 1, len(gates))`` result holds
        gate ``g``'s cutoffs; lanes without a gate, lanes whose own
        :meth:`row_cutoffs` is ``None`` and rows past a lane's last hold
        ``-inf`` (a running best is never below zero, so they never
        fire).  The batch then needs one running-best compare per row
        for all lanes together; ``None`` — run the batch ungated — when
        no lane can fire at all.
        """
        matrix = None
        for lane, gate in enumerate(gates):
            cutoffs = None if gate is None else gate._cutoff_array()
            if cutoffs is None:
                continue
            if matrix is None:
                matrix = np.full(
                    (max_rows + 1, len(gates)), -np.inf, dtype=np.float64
                )
            matrix[: cutoffs.size, lane] = cutoffs
        return matrix

    def record_row_prune(self, y: int, best: float) -> None:
        """Record an in-fill prune decided via :meth:`row_cutoffs`."""
        bound = max(best, 0.0) + float(self.rem[y])
        # The recorded bound must stay a non-negative upper bound that
        # never exceeds the task's previous score (heap monotonicity).
        self.bound = max(min(bound, self.cap), 0.0)
        self.pruned = True
        self.cells_filled = y * self.cols
        self.pruned_cells = (self.rows - y) * self.cols
