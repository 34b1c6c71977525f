"""The new O(n³) top-alignment algorithm (§3, Figure 5).

:class:`TopAlignmentState` holds everything one search over a sequence
needs — the split tasks, override triangle, bottom-row store and
engine — and exposes the two operations of Figure 5's loop:

* :meth:`TopAlignmentState.align_tasks_batch` (one task:
  :meth:`~TopAlignmentState.align_task`) — ``AlignWithoutTraceback``:
  score splits under the current triangle, with shadow-alignment
  rejection against the cached first-pass bottom rows.  It is
  :meth:`~TopAlignmentState.problems_for` → one engine batch →
  :meth:`~TopAlignmentState.record_rows`; a driver that runs the engine
  elsewhere (another thread, another process) calls the two halves
  itself;
* :meth:`TopAlignmentState.accept_task` — lines 13–14: recompute the
  winning matrix, trace the alignment back, and mark its pairs in the
  override triangle.

:func:`find_top_alignments` runs the best-first loop
(:class:`repro.core.session.TopAlignmentSession`, lane-batched by
default) on top of this state.  The shared-memory scheduler and the
distributed master/slave driver are dispatch policies of that same
session, and the cluster simulator reuses the state object, which is
how the paper's "exactly the same top alignments" guarantee carries
over to every execution mode.
"""

from __future__ import annotations

import os
import time
import weakref
from typing import Callable, NamedTuple

import numpy as np

from ..align.base import (
    DEFAULT_ENGINE,
    DEFAULT_GROUP,
    AlignmentProblem,
    Resume,
    get_engine,
)
from ..align.lanes import BLOCK_SPLITS
from ..align.matrix import SavedRowsMatrix, full_matrix
from ..align.profile import QueryProfile
from ..align.pruning import PruneContext, Staircase
from ..align.rowstep import SNAPSHOT_ROWS
from ..align.traceback import traceback
from ..scoring.exchange import ExchangeMatrix
from ..scoring.gaps import GapPenalties
from ..sequences.sequence import Sequence
from .bottomrows import BottomRowStore
from .override import (
    DenseOverrideTriangle,
    OverrideTriangle,
    SparseOverrideTriangle,
    TransposedSplitView,
)
from .result import RunStats, TopAlignment
from .tasks import Task

__all__ = [
    "STATE_BYTES",
    "TopAlignmentState",
    "budget_shares",
    "find_top_alignments",
]

#: The bytes one search keeps in its stores — saved rows, resident
#: bottom rows and the override triangle — whatever the sequence length
#: (:func:`budget_shares`).  A constant, not an option.
STATE_BYTES = 256 * 2**20


class Shares(NamedTuple):
    """The bytes each store of a search may hold."""

    saved: int
    rows: int
    triangle: int


def budget_shares() -> Shares:
    """How :data:`STATE_BYTES` is shared among a search's stores: half
    for the saved rows, which grow as m³, a quarter each for the
    resident bottom rows and the triangle, which grow as m²."""
    return Shares(STATE_BYTES // 2, STATE_BYTES // 4, STATE_BYTES // 4)


class TopAlignmentState:
    """Mutable search state shared by all execution modes.

    The state sizes its own stores from ``m`` and :data:`STATE_BYTES`
    (:func:`budget_shares`; none of it is an option): the override
    triangle is dense while its ``(m+1)²`` bytes fit the triangle's
    share and sparse past it; the first-pass bottom rows
    (:attr:`bottom_rows`) stay resident up to their share and are
    refilled on demand — counted in :attr:`stats` like any other fill —
    past it; and the saved rows a realignment resumes from
    (:attr:`snapshots`) drop whole splits, lowest last score first, past
    theirs.  None of it changes an accepted top: a split without saved
    rows realigns from row 0.

    Parameters
    ----------
    sequence:
        The sequence to search for internal repeats.
    exchange, gaps:
        Scoring model.  Integral scores are strongly recommended — the
        shadow-validity test compares scores for exact equality, which
        is exact in float64 only for integral values (the paper's
        implementation used short integers throughout).
    engine:
        Alignment engine name or instance (default
        :data:`~repro.align.base.DEFAULT_ENGINE`, the lockstep lane
        engine).
    prune:
        Use the exact block bounds (default ``True``; see
        :mod:`repro.align.pruning`): every never-aligned split starts at
        a bound taken from a handful of block fills, and one that never
        tops the heap is never filled.  Accepted tops are bit-identical
        either way — a bound is only a starting heap score, never a
        fresh alignment.
    """

    def __init__(
        self,
        sequence: Sequence,
        exchange: ExchangeMatrix,
        gaps: GapPenalties = GapPenalties(),
        *,
        engine: str = DEFAULT_ENGINE,
        prune: bool = True,
    ) -> None:
        if len(sequence) < 2:
            raise ValueError("sequence must have at least 2 residues")
        if sequence.alphabet.name != exchange.alphabet.name:
            raise ValueError(
                f"sequence alphabet {sequence.alphabet.name!r} does not match "
                f"exchange matrix alphabet {exchange.alphabet.name!r}"
            )
        self.sequence = sequence
        self.codes = sequence.codes
        self.m = len(sequence)
        self.exchange = exchange
        self.gaps = gaps
        self.engine = get_engine(engine)
        # The query profile: the full n_symbols x m substitution gather,
        # computed once here so every problem's seq2 block is a zero-copy
        # suffix view (the SSW-style precomputation; see align.profile).
        self.profile = QueryProfile(self.codes, exchange)
        # Exact block bounds (align.pruning); None starts every
        # never-aligned task at +inf, the paper's schedule.
        self.prune_context = PruneContext(self.profile) if prune else None
        self._start_bounds: np.ndarray | None = None
        self.shares = budget_shares()
        if (self.m + 1) ** 2 <= self.shares.triangle:
            self.triangle: OverrideTriangle = DenseOverrideTriangle(self.m)
        else:
            self.triangle = SparseOverrideTriangle(self.m)
        # The store reaches back through a weak reference: a cycle would
        # keep every finished state's rows alive until the cyclic GC ran.
        state = weakref.ref(self)
        self.bottom_rows = BottomRowStore(
            self.m, capacity=self.shares.rows, refill=lambda r: state()._refill(r)
        )
        #: ``snapshots[r] = (stamp, saved)``: rows ``S, 2S, ..`` above
        #: split ``r``'s bottom row (``S`` = ``SNAPSHOT_ROWS``), ``saved[k]``
        #: the two vectors a fill resumes from at row ``(k + 1) * S``
        #: (:class:`~repro.align.base.Resume`), exact under triangle
        #: version ``stamp`` (DESIGN.md, "Resuming a realignment").  Live
        #: and die with the state: no checkpoint stores them.
        self.snapshots: dict[int, tuple[int, np.ndarray]] = {}
        #: Bytes of :attr:`snapshots`, and each split's last recorded
        #: score: the splits that go first when the bytes pass their share.
        self.snapshot_bytes = 0
        self._snapshot_scores: dict[int, float] = {}
        #: Splits whose saved rows were dropped to stay in the share.
        self.snapshots_dropped = 0
        self.found: list[TopAlignment] = []
        #: ``spans[v] = (i_min, j_max)`` of ``found[v]``: the splits
        #: ``i_min <= r < j_max`` are the ones whose matrices that
        #: acceptance marked (see :meth:`Task.is_current`).
        self.spans: list[tuple[int, int]] = []
        self.stats = RunStats(engine=self.engine.describe())
        self.stats.realignments_per_top.append(0)
        # Debug-mode invariant checking (REPRO_CHECK_INVARIANTS=1|full);
        # the env test avoids importing the analysis package on hot paths.
        self.invariants = None
        if os.environ.get("REPRO_CHECK_INVARIANTS", ""):
            from ..analysis.invariants import checker_from_env

            self.invariants = checker_from_env(self)

    # -- problem construction --------------------------------------------

    @property
    def n_found(self) -> int:
        """Number of accepted top alignments (== triangle version)."""
        return len(self.found)

    def problem_for(
        self, r: int, *, with_override: bool = True, resume: Resume | None = None
    ) -> AlignmentProblem:
        """The alignment problem of split ``r`` under the current triangle."""
        override = self.triangle.view_for_split(r) if with_override else None
        return AlignmentProblem(
            self.codes[:r],
            self.codes[r:],
            self.exchange,
            self.gaps,
            override,
            profile=self.profile.suffix(r),
            resume=resume,
        )

    def block_problem(self, first: int, stop: int) -> AlignmentProblem:
        """The block problem whose rows ``first..stop-1`` bound those
        splits (:mod:`repro.align.pruning`): rows ``S[1..stop-1]``
        against columns ``S[first+1..m]`` under the staircase, the
        harvest request riding as its gate."""
        return AlignmentProblem(
            self.codes[: stop - 1],
            self.codes[first:],
            self.exchange,
            self.gaps,
            Staircase(first, self.m - first),
            profile=self.profile.suffix(first),
            prune=self.prune_context.gate_for(first, stop),
        )

    # -- Figure 5 operations ----------------------------------------------

    def make_tasks(self) -> list[Task]:
        """One task per split point, at its best known upper bound.

        A fresh search starts every task never-aligned at ``+inf``
        (lines 2–7) — or, with block bounds (``prune``), at its block
        bound: still never-aligned (acceptance requires a fresh
        alignment first), but sortable below already aligned work, so
        hopeless splits sink in the heap unaligned.  A split whose first-pass row is
        already cached (a restored checkpoint) starts where that pass
        left it — the row's maximum, stamped version 0 — which is an
        upper bound under any later triangle, so resuming repays no
        first pass.
        """
        bounds = self.start_bounds()
        tasks = []
        for r in range(1, self.m):
            if r in self.bottom_rows:
                score = self.bottom_rows.max_of(r)
                tasks.append(Task(r, score=score, aligned_with=0))
            elif bounds is not None:
                tasks.append(Task(r, score=float(bounds[r - 1])))
            else:
                tasks.append(Task(r))
        return tasks

    def start_bounds(self) -> np.ndarray | None:
        """Starting bounds of the splits without a cached row (entry
        ``r - 1`` bounds split ``r``), or ``None`` for ``+inf`` throughout.

        With ``prune``, the first call sends the block problems of those
        splits — :data:`~repro.align.lanes.BLOCK_SPLITS` neighbours each,
        trimmed to the splits a block still has to bound — through
        :meth:`fill` as one lockstep batch (engine time and cells, but
        no split's alignment), and counts the splits a bound retires
        for good: at or below the run's ``min_score`` (the context's
        floor), never to be filled.  The bounds hold for the whole
        search, so later calls (another session over this state) reuse
        them and count nothing twice.  The scalar engine, the unbounded
        reference, and any other that leaves a request unanswered keep
        ``+inf``.
        """
        ctx = self.prune_context
        if ctx is None or self.engine.name == "scalar":
            return None
        if self._start_bounds is not None:
            return self._start_bounds
        bounds = np.full(self.m - 1, np.inf)
        owed, problems = [], []
        for at in range(1, self.m, BLOCK_SPLITS):
            block = range(at, min(at + BLOCK_SPLITS, self.m))
            block = [r for r in block if r not in self.bottom_rows]
            if block:
                owed += block
                problems.append(self.block_problem(block[0], block[-1] + 1))
        if problems:
            _rows, seconds = self.fill(problems)
            self.stats.engine_seconds += seconds
            self.stats.cells += sum(problem.cells for problem in problems)
        for gate in (problem.prune for problem in problems):
            if gate.bounds is not None:
                bounds[gate.first - 1 : gate.stop - 1] = gate.bounds
        retired = [r for r in owed if bounds[r - 1] <= ctx.floor]
        self.stats.pruned_lanes += len(retired)
        self.stats.pruned_cells += sum(r * (self.m - r) for r in retired)
        self._start_bounds = bounds
        return bounds

    def align_task(self, task: Task) -> float:
        """``AlignWithoutTraceback``: score split ``task.r`` now.

        A batch of one (see :meth:`align_tasks_batch`).  The task's
        ``score`` and ``aligned_with`` are updated in place and the new
        score returned.
        """
        return self.align_tasks_batch([task])[0]

    def _record_row(
        self, task: Task, problem: AlignmentProblem, row: np.ndarray, version: int
    ) -> float:
        """Put-or-shadow-score bookkeeping of one completed fill.

        First alignments cache the bottom row; realignments apply the
        Appendix A shadow-validity rule and are stamped with ``version``,
        the triangle version the fill observed.  The rows the fill saved
        are folded into :attr:`snapshots` under the same stamp.  The
        task's ``score`` and ``aligned_with`` are updated in place, the
        invariant checker (if armed) validates the transition, and the
        new score is returned.
        """
        prev_score, prev_version = task.score, task.aligned_with
        if task.r not in self.bottom_rows:
            # First pass: ``row`` was computed under the empty triangle
            # (see problems_for), so it is scored — and versioned — as the
            # canonical version-0 alignment even when acceptances have
            # already happened.  A late first pass therefore never
            # satisfies ``is_current`` directly; the task must realign
            # under the live triangle (with the shadow rule) before it
            # can be accepted.
            self.bottom_rows.put(task.r, row)
            score = self.bottom_rows.max_of(task.r)
            version = 0
        else:
            self.stats.realignments += 1
            self.stats.realignments_per_top[-1] += 1
            score = self.bottom_rows.score_of(task.r, row)
        task.score = score
        task.aligned_with = version
        resume = problem.resume
        stamp = None
        if resume is not None and resume.snapshots is not None:
            stamp = self._keep_snapshots(task.r, resume, version, score)
        if self.invariants is not None:
            self.invariants.after_align(
                task, row, prev_score=prev_score, prev_version=prev_version
            )
            self.invariants.within_budget(task.r, kept=stamp is not None)
            if stamp is not None:
                self.invariants.after_resume(task.r, resume, row, stamp, version)
        return score

    def _keep_snapshots(
        self, r: int, resume: Resume, version: int, score: float
    ) -> int | None:
        """Fold a fill's saved rows into :attr:`snapshots`, stamped
        ``version``; returns the stamp the rows it resumed from had, or
        ``None`` when they were dropped while the fill ran (it then
        keeps nothing: the rows above its resume row are gone).

        Rows above the resume row are the ones the fill started from,
        exact under ``version`` too (that is how the resume row was
        chosen, :meth:`_resume_for`); rows below it are the fill's own.
        """
        held = self.snapshots.get(r)
        if held is not None:
            stamp, saved = held
            saved[resume.start // SNAPSHOT_ROWS :] = resume.snapshots
        elif resume.start:
            return None
        else:
            stamp, saved = version, resume.snapshots
            self.snapshot_bytes += saved.nbytes
        self.snapshots[r] = (version, saved)
        self._snapshot_scores[r] = score
        if self.snapshot_bytes > self.shares.saved:
            self._drop_snapshots(keep=r)
        return stamp

    def _drop_snapshots(self, keep: int) -> None:
        """Drop whole splits' saved rows, lowest last score first, until
        the rest fit their share; split ``keep`` stays."""
        scores = self._snapshot_scores
        for r in sorted(scores, key=scores.get):
            if self.snapshot_bytes <= self.shares.saved:
                break
            if r != keep:
                self.snapshot_bytes -= self.snapshots.pop(r)[1].nbytes
                del scores[r]
                self.snapshots_dropped += 1

    def _exact_snapshots(self, r: int) -> tuple[int, np.ndarray | None]:
        """``(k, saved)``: split ``r``'s saved rows, of which the first
        ``k`` — rows ``S, 2S, .. kS`` (``S`` = ``SNAPSHOT_ROWS``) — lie
        above every row an acceptance since the rows' stamp changed, so
        they are exact now.

        The acceptance with pairs from ``(i_min, ·)`` marks cells of split
        ``r`` (``i_min <= r < j_max``) in rows ``i_min`` and below only,
        and Equation 1 looks only up and to the left, so rows above
        ``i_min`` — and the two vectors a fill carries out of them — are
        unchanged.
        """
        held = self.snapshots.get(r)
        if held is None:
            return 0, None
        stamp, saved = held
        limit = r - 1
        for i_min, j_max in self.spans[stamp:]:
            if i_min <= r < j_max and i_min <= limit:
                limit = i_min - 1
        return limit // SNAPSHOT_ROWS, saved

    def _resume_for(self, r: int) -> Resume:
        """Split ``r``'s resume request: from the deepest exact saved row
        (:meth:`_exact_snapshots`).  Without one the fill starts at the
        top and saves rows."""
        k, saved = self._exact_snapshots(r)
        return Resume(k * SNAPSHOT_ROWS, saved[k - 1]) if k else Resume()

    def accept_task(self, task: Task) -> TopAlignment:
        """Accept ``task`` as the next top alignment (lines 13–14).

        Recomputes the split's matrix under the *same* triangle the
        task was last scored with (:meth:`_traceback_rows`: as much of
        it as the path can touch), picks the best valid bottom-row cell
        (ties: leftmost), traces the path back, converts it to global
        pairs and marks the override triangle.
        """
        if task.aligned_with != self.n_found:
            raise ValueError(
                f"task r={task.r} was aligned with triangle version "
                f"{task.aligned_with}, not the current {self.n_found}"
            )
        if task.score <= 0:
            raise ValueError("cannot accept a non-positive top alignment")
        problem = self.problem_for(task.r)
        matrix, top, extend = self._traceback_rows(task, problem)
        self.stats.tracebacks += 1
        bottom = np.asarray(matrix[-1], dtype=np.float64)
        valid = bottom == self.bottom_rows.get(task.r)[: bottom.size]
        candidates = np.where(valid, bottom, -np.inf)
        end_x = int(np.argmax(candidates))
        best = float(candidates[end_x])
        if best != task.score:
            raise AssertionError(
                f"accepted score {best} does not match task score {task.score} "
                f"for split r={task.r}"
            )
        path = traceback(problem, matrix, problem.rows, end_x, top=top, extend=extend)
        pairs = tuple((step.y, task.r + step.x) for step in path.pairs)
        alignment = TopAlignment(
            index=self.n_found, r=task.r, score=task.score, pairs=pairs
        )
        self._adopt(alignment)
        if self.invariants is not None:
            self.invariants.after_accept(alignment)
        return alignment

    def _adopt(self, alignment: TopAlignment) -> None:
        """Make ``alignment`` the next triangle version."""
        self.triangle.mark(alignment.pairs)
        self.found.append(alignment)
        self.spans.append((alignment.pairs[0][0], alignment.pairs[-1][1]))
        self.stats.realignments_per_top.append(0)

    def _traceback_rows(
        self, task: Task, problem: AlignmentProblem
    ) -> tuple[np.ndarray, int, Callable[[], int] | None]:
        """Split ``task.r``'s matrix under the current triangle, as much
        of it as the accepted path can touch: ``(matrix, top, extend)``
        for :func:`~repro.align.traceback.traceback`.

        With exact saved rows (:meth:`_exact_snapshots`) only the rows
        below the deepest of them are filled, and the traceback fills
        the rows above, a block at a time, as far as its path climbs
        (:class:`~repro.align.matrix.SavedRowsMatrix`).  Otherwise
        :meth:`_traceback_matrix` is filled whole.
        """
        k, saved = self._exact_snapshots(task.r)
        if k:
            rows = SavedRowsMatrix(problem, saved, k)
            return rows.matrix, rows.top, rows.extend
        return self._traceback_matrix(task, problem), 0, None

    def _traceback_matrix(self, task: Task, problem: AlignmentProblem) -> np.ndarray:
        """Split ``task.r``'s matrix under the current triangle, as far
        right as the accepted path can end.

        The accepted cell is a valid endpoint, so its first-pass value
        equals the task's score, and Equation 1 only looks left and up:
        no column past the last such cell can matter.  A fill costs one
        row step per row almost whatever the row's length, and the
        recurrence is symmetric (one gap model, a symmetric exchange
        matrix): when that leaves fewer columns than rows, the transpose
        is filled — one row step per *column* — and handed back
        transposed.  Otherwise the whole matrix is filled as it stands.
        """
        r = task.r
        ends = np.flatnonzero(self.bottom_rows.get(r) == task.score)
        if ends.size == 0 or ends[-1] >= r:
            return full_matrix(problem)
        cols = int(ends[-1])
        transposed = AlignmentProblem(
            self.codes[r : r + cols],
            self.codes[:r],
            self.exchange,
            self.gaps,
            TransposedSplitView(self.triangle, r, cols),
            profile=self.profile.view(0, r),
        )
        return full_matrix(transposed).T

    def align_tasks_batch(self, tasks: list[Task]) -> list[float]:
        """Score several tasks in one engine batch (lane groups, §4.1).

        Each task's ``score`` and ``aligned_with`` are updated in place
        and the new scores returned.  Engines with a true batched
        implementation (the lane engine) compute the fills in lockstep.
        """
        problems = self.problems_for(tasks)
        rows, seconds = self.fill(problems)
        return self.record_rows(tasks, problems, rows, self.n_found, seconds)

    def _refill(self, r: int) -> np.ndarray:
        """Split ``r``'s first-pass row again, for :attr:`bottom_rows`
        once it has evicted it: a fill like any other, counted as one."""
        problem = self.problem_for(r, with_override=False)
        (row,), seconds = self.fill([problem])
        self.stats.engine_seconds += seconds
        self.stats.cells += problem.cells
        return row

    def fill(self, problems: list[AlignmentProblem]) -> tuple[list[np.ndarray], float]:
        """One timed engine batch: ``(bottom rows, seconds)``.

        Touches nothing but the engine — safe outside a driver's lock.
        """
        start = time.perf_counter()
        rows = self.engine.last_rows_batch(problems)
        return rows, time.perf_counter() - start

    def problems_for(self, tasks: list[Task]) -> list[AlignmentProblem]:
        """The alignment problems of ``tasks``, as of now.

        A task's *first* alignment is always computed under the empty
        triangle, whatever the current version: the cached row is the
        shadow-validity reference, and the Appendix A rule is defined
        against the version-0 row.  Without start bounds this is moot
        (every first pass happens before the first acceptance); with
        finite block bounds a task may be popped for the first time
        after acceptances, and the override view must be withheld so
        later shadow decisions — and therefore the accepted tops —
        stay bit-identical to a run that starts at ``+inf``.

        Every problem carries a resume request (:meth:`_resume_for`): a
        realignment skips the rows no acceptance since its saved rows
        changed, and every fill saves rows for the next one.
        """
        problems = []
        for task in tasks:
            filled = task.r in self.bottom_rows
            resume = self._resume_for(task.r) if filled else Resume()
            problems.append(
                self.problem_for(task.r, with_override=filled, resume=resume)
            )
        return problems

    def record_rows(
        self,
        tasks: list[Task],
        problems: list[AlignmentProblem],
        rows: list[np.ndarray],
        version: int,
        seconds: float,
    ) -> list[float]:
        """Fold the bottom rows of one engine batch into the search state.

        ``problems`` are the :meth:`problems_for` of ``tasks`` and
        ``version`` the triangle version they were built under — the
        current one for an inline call, an older one when acceptances
        happened while the fills ran elsewhere (the score is then a
        stale upper bound, exactly like any other).  Caches the bottom
        row on a first alignment, applies the Appendix A shadow-validity
        rule on realignments, folds in the rows the fills saved, and
        returns the new scores.  ``cells`` counts the rows each fill
        filled: all of them unless the engine honoured a resume request.
        """
        self.stats.engine_seconds += seconds
        self.stats.alignments += len(problems)
        # The lane engine's tag names the widest work type its fills have
        # run in (over the engine's lifetime: a reused engine may name a
        # type an earlier search needed).
        self.stats.engine = self.engine.describe()
        self.stats.cells += sum(problem.cells for problem in problems)
        return [
            self._record_row(task, problem, row, version)
            for task, problem, row in zip(tasks, problems, rows)
        ]

    def restore(self, alignments=(), rows=None) -> None:
        """Adopt the durable products of an earlier run (a checkpoint).

        ``alignments`` are re-accepted in order (marking the triangle);
        ``rows`` maps split → version-0 bottom row.  :meth:`make_tasks`
        then starts every restored split at its row's maximum, so the
        continuation is exactly the original run's.
        """
        for alignment in alignments:
            self._adopt(alignment)
        for r, row in (rows or {}).items():
            self.bottom_rows.put(int(r), np.asarray(row, dtype=np.float64))


def find_top_alignments(
    sequence: Sequence,
    k: int,
    exchange: ExchangeMatrix,
    gaps: GapPenalties = GapPenalties(),
    *,
    engine: str = DEFAULT_ENGINE,
    min_score: float = 0.0,
    group: int = DEFAULT_GROUP,
    state: TopAlignmentState | None = None,
    prune: bool = True,
) -> tuple[list[TopAlignment], RunStats]:
    """Compute up to ``k`` nonoverlapping top alignments (Figure 5).

    Returns the accepted alignments in decreasing-score order together
    with run statistics.  Fewer than ``k`` alignments are returned when
    the sequence is exhausted (the best remaining score would be
    ``<= min_score``).

    The defaults are the fast path: the lockstep ``lanes`` engine fed
    batches of ``group=8`` stale tasks, block bounds on.  ``group`` selects
    the scheduling grain of the one best-first driver
    (:class:`~repro.core.session.TopAlignmentSession`): 1 aligns one
    task per engine call (the strictly sequential loop), larger values
    realign the head with its nearest stale neighbours in one lockstep
    batch and send first passes out in engine-sized chunks.  Accepted
    alignments are bit-identical for every engine, ``group`` and
    ``prune`` setting.  Memory is not a setting: the search keeps its
    stores within :data:`STATE_BYTES` whatever the sequence length (see
    :class:`TopAlignmentState`).

    Passing a pre-built ``state`` lets callers (tests, the simulator)
    inspect internals afterwards — and continue a partial search: the
    run accepts until ``state`` holds ``k`` alignments.  ``prune``
    (ignored when ``state`` is passed, which carries its own
    context) toggles the exact block bounds of
    :mod:`repro.align.pruning`.
    """
    from .session import TopAlignmentSession

    if k < 1:
        raise ValueError("k must be >= 1")
    if state is None:
        state = TopAlignmentState(
            sequence,
            exchange,
            gaps,
            engine=engine,
            prune=prune,
        )
    session = TopAlignmentSession.from_state(state, group=group, min_score=min_score)
    if k > state.n_found:
        session.extend(k - state.n_found)
    return list(state.found), state.stats
