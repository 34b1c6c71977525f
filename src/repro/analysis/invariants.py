"""Runtime invariant validators (``REPRO_CHECK_INVARIANTS``).

The algorithm's million-fold speedup rests on three fragile claims:

* **Heap upper bounds** (§3): a task's cached score — possibly computed
  under an *older* override triangle — is an upper bound on its fresh
  score under the current triangle, because newer triangles only
  override more cells and overriding never raises a score.  Best-first
  acceptance is exact only while this holds.
* **Override-triangle monotonicity** (§3): accepted cells only ever
  flip False → True; nothing un-marks a pair, and the version counter
  advances by exactly one per acceptance.
* **Shadow-row validity** (Appendix A): a realignment may end only in
  bottom-row cells whose value is *unchanged* from the first-pass
  cached row; changed cells are shadow alignments rerouted around an
  accepted path.

A fourth makes realignments cheap: a realignment **resumes** from a
saved row above every row an acceptance since the save changed, so the
rows it skips are the ones a full fill would repeat byte for byte.

None of these fail loudly on their own — they fail as silently wrong
top alignments.  Setting ``REPRO_CHECK_INVARIANTS=1`` (cheap checks)
or ``REPRO_CHECK_INVARIANTS=full`` (adds O(n·cells) fresh-score
re-verification after each acceptance: every queued upper bound still
dominates, every score the span rule left current is still exact, the
starting bounds of a sample of the splits no fill has touched
dominate the first-pass scores they stand in for, and a sample of the
resumed fills equals the same fill from the top)
makes every execution mode — sequential, lane-grouped, threaded,
distributed — self-verifying; violations raise
:class:`InvariantViolation`.
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..align.base import Resume
from ..align.vector import VectorEngine
from ..core.override import DenseOverrideTriangle
from ..core.tasks import NEVER_ALIGNED

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..core.result import TopAlignment
    from ..core.tasks import Task
    from ..core.topalign import TopAlignmentState

__all__ = [
    "ENV_FLAG",
    "InvariantViolation",
    "invariant_mode",
    "checker_from_env",
    "InvariantChecker",
    "TriangleMonotonicityValidator",
    "validate_shadow_rows",
    "check_heap_upper_bound",
]

#: Environment variable controlling the checks.
ENV_FLAG = "REPRO_CHECK_INVARIANTS"

#: Absolute tolerance for score comparisons.  Scores are integral under
#: the recommended matrices, so any tolerance well under 1 is safe.
_TOL = 1e-6

#: Every how-many-th never-filled split a ``full`` sweep recomputes.
NEVER_FILLED_STRIDE = 5

#: Every how-many-th resumed fill ``full`` mode repeats from the top.
RESUMED_STRIDE = 5

_OFF = {"", "0", "off", "false", "no"}
_FULL = {"full", "2", "all"}


class InvariantViolation(AssertionError):
    """A checked algorithmic invariant does not hold.

    Violations cross process boundaries (a worker's shard run, a
    cluster node's lease) and must survive a pickle round-trip, hence
    the explicit ``__reduce__``: the default ``BaseException`` protocol
    replays ``cls(*self.args)``, which does not match this two-argument
    constructor.
    """

    def __init__(self, invariant: str, message: str) -> None:
        super().__init__(f"[{invariant}] {message}")
        self.invariant = invariant
        self.detail = message

    def __reduce__(self):
        return (type(self), (self.invariant, self.detail))


def invariant_mode() -> str | None:
    """``None`` (off), ``"cheap"`` or ``"full"``, from the environment."""
    raw = os.environ.get(ENV_FLAG, "").strip().lower()
    if raw in _OFF:
        return None
    return "full" if raw in _FULL else "cheap"


def checker_from_env(state: "TopAlignmentState") -> "InvariantChecker | None":
    """An :class:`InvariantChecker` bound to ``state``, if enabled."""
    mode = invariant_mode()
    if mode is None:
        return None
    return InvariantChecker(state, mode=mode)


# ---------------------------------------------------------------------------
# individual validators (usable standalone from tests / fuzzers)
# ---------------------------------------------------------------------------


class TriangleMonotonicityValidator:
    """Checks that an override triangle only ever gains marked pairs.

    Keeps a snapshot of the marked-pair set; each :meth:`validate` call
    compares the triangle against the snapshot and then advances it.
    """

    def __init__(self, triangle) -> None:
        self.pairs: set[tuple[int, int]] = set(triangle)
        self.version: int = triangle.version

    def validate(self, triangle) -> set[tuple[int, int]]:
        """Raise unless the triangle grew monotonically; returns new pairs."""
        current = set(triangle)
        lost = self.pairs - current
        if lost:
            raise InvariantViolation(
                "triangle-monotonic",
                f"{len(lost)} previously marked pair(s) were un-marked "
                f"(e.g. {sorted(lost)[:3]}); accepted cells may only flip "
                "False->True",
            )
        if triangle.version < self.version:
            raise InvariantViolation(
                "triangle-monotonic",
                f"triangle version went backwards: {self.version} -> "
                f"{triangle.version}",
            )
        if triangle.marked_count != len(current):
            raise InvariantViolation(
                "triangle-monotonic",
                f"marked_count={triangle.marked_count} disagrees with the "
                f"{len(current)} pairs the triangle iterates",
            )
        for i, j in current - self.pairs:
            if not (1 <= i < j <= triangle.m):
                raise InvariantViolation(
                    "triangle-monotonic",
                    f"newly marked pair ({i}, {j}) outside the triangle "
                    f"1 <= i < j <= {triangle.m}",
                )
        fresh = current - self.pairs
        self.pairs = current
        self.version = triangle.version
        return fresh


def validate_shadow_rows(
    store,
    r: int,
    fresh_row: np.ndarray,
    *,
    claimed_mask: np.ndarray | None = None,
    claimed_score: float | None = None,
) -> None:
    """Check Appendix A shadow-rejection for one realignment.

    Recomputes the valid-endpoint mask independently of the store
    (``fresh == cached``) and verifies the store's answers against it:
    ``claimed_mask`` (if given) must match cell-for-cell, and
    ``claimed_score`` (if given) must be the maximum over unchanged
    cells — 0.0 when every cell changed.
    """
    original = np.asarray(store.get(r), dtype=np.float64)
    fresh = np.asarray(fresh_row, dtype=np.float64)
    if fresh.shape != original.shape:
        raise InvariantViolation(
            "shadow-rows",
            f"split r={r}: fresh bottom row has shape {fresh.shape}, "
            f"cached first-pass row has {original.shape}",
        )
    expected_mask = fresh == original
    if claimed_mask is not None and not np.array_equal(
        np.asarray(claimed_mask, dtype=bool), expected_mask
    ):
        bad = int(np.flatnonzero(np.asarray(claimed_mask) != expected_mask)[0])
        raise InvariantViolation(
            "shadow-rows",
            f"split r={r}: validity mask wrong at column {bad} — a cell is "
            "valid iff its value is unchanged from the first pass",
        )
    expected_score = (
        float(fresh[expected_mask].max()) if expected_mask.any() else 0.0
    )
    if claimed_score is not None and not math.isclose(
        claimed_score, expected_score, abs_tol=_TOL
    ):
        raise InvariantViolation(
            "shadow-rows",
            f"split r={r}: claimed realignment score {claimed_score} != "
            f"max over unchanged cells {expected_score} (shadow alignments "
            "must not contribute)",
        )


def check_heap_upper_bound(
    state: "TopAlignmentState", task: "Task", *, tol: float = _TOL
) -> float:
    """Check one task's cached score against its fresh score.

    Recomputes the split exactly as
    :meth:`TopAlignmentState.align_task` would — under the *current*
    triangle with shadow rejection, or, for a split that has never been
    filled, its first pass under the empty triangle, the score a
    starting bound stands in for — and raises unless ``task.score >=
    fresh``.  Returns the fresh score.  O(cells) — debug/fuzzing use
    only.
    """
    filled = task.r in state.bottom_rows
    row = state.engine.last_row(state.problem_for(task.r, with_override=filled))
    fresh = float(row.max())
    if filled:  # not via the store: a refill there would count in the stats
        first = state.bottom_rows.resident().get(task.r)
        if first is None:
            first = state.engine.last_row(state.problem_for(task.r, with_override=False))
        fresh = float(row[row == first].max(initial=0.0))
    if task.score + tol < fresh:
        raise InvariantViolation(
            "heap-upper-bound",
            f"task r={task.r}: cached score {task.score} (triangle version "
            f"{task.aligned_with}) is below its fresh score {fresh} under "
            f"triangle version {state.n_found}; stale scores must be upper "
            "bounds for best-first acceptance to be exact",
        )
    return fresh


# ---------------------------------------------------------------------------
# the per-state checker the hot paths call
# ---------------------------------------------------------------------------


class InvariantChecker:
    """Bundles the validators for one :class:`TopAlignmentState`.

    Hook points (called by the sequential loop, the threaded scheduler
    and the distributed master when ``REPRO_CHECK_INVARIANTS`` is set):

    * :meth:`guard_task` — structural checks on every queue insert;
    * :meth:`after_align` — score monotonicity + shadow-row validity;
    * :meth:`within_budget` — every store within its share of
      :data:`~repro.core.topalign.STATE_BYTES`;
    * :meth:`after_resume` — a fill skipped only rows nothing changed;
    * :meth:`after_accept` — triangle monotonicity + non-overlap;
    * :meth:`verify_upper_bounds` — full-mode fresh-score sweep after
      every acceptance and at exhaustion: stale scores dominate,
      current scores are exact, and a sample of the never-filled splits'
      starting bounds dominate their first-pass scores.
    """

    def __init__(self, state: "TopAlignmentState", mode: str = "cheap") -> None:
        if mode not in ("cheap", "full"):
            raise ValueError("mode must be 'cheap' or 'full'")
        self.state = state
        self.mode = mode
        self.triangle_validator = TriangleMonotonicityValidator(state.triangle)
        #: Number of individual invariant checks executed (observability).
        self.checks = 0
        #: Fills resumed below row 0 so far (``full`` mode samples them).
        self.resumed = 0

    # -- queue guard (wired into TaskQueue) --------------------------------

    def guard_task(self, task: "Task") -> None:
        """Structural sanity of a task entering the queue."""
        self.checks += 1
        if math.isnan(task.score):
            raise InvariantViolation(
                "task-structure", f"task r={task.r} has NaN score"
            )
        if task.score < 0.0:
            raise InvariantViolation(
                "task-structure",
                f"task r={task.r} has negative score {task.score}; local "
                "alignment scores are clamped at zero",
            )
        if not 1 <= task.r < self.state.m:
            raise InvariantViolation(
                "task-structure",
                f"task split r={task.r} outside 1..{self.state.m - 1}",
            )
        if task.aligned_with != NEVER_ALIGNED and (
            task.aligned_with < 0 or task.aligned_with > self.state.n_found
        ):
            raise InvariantViolation(
                "task-structure",
                f"task r={task.r} claims triangle version "
                f"{task.aligned_with}, but only 0..{self.state.n_found} "
                "exist",
            )

    # -- alignment hook ----------------------------------------------------

    def after_align(
        self,
        task: "Task",
        row: np.ndarray,
        *,
        prev_score: float,
        prev_version: int,
    ) -> None:
        """Validate one (re)alignment that just updated ``task``."""
        self.checks += 1
        if task.score > prev_score + _TOL:
            raise InvariantViolation(
                "heap-upper-bound",
                f"task r={task.r}: realignment raised the score "
                f"{prev_score} -> {task.score} (previous version "
                f"{prev_version}, now {task.aligned_with}); a growing "
                "triangle can only lower scores, so the cached value was "
                "not an upper bound",
            )
        if task.r in self.state.bottom_rows:
            validate_shadow_rows(
                self.state.bottom_rows, task.r, row, claimed_score=task.score
            )

    def within_budget(self, r: int, *, kept: bool) -> None:
        """After split ``r``'s fill was recorded: every store is within
        its share of the state's budget — or holds just the one item it
        was last given, which no store evicts — and, if the fill kept
        saved rows, ``r`` still has them (:meth:`after_resume` reads
        them)."""
        self.checks += 1
        state, shares, rows = self.state, self.state.shares, self.state.bottom_rows
        saved = sum(held.nbytes for _, held in state.snapshots.values())
        dense = isinstance(state.triangle, DenseOverrideTriangle)
        for broken, message in (
            (saved != state.snapshot_bytes,
             f"saved rows hold {saved} bytes, counted {state.snapshot_bytes}"),
            (kept and r not in state.snapshots,
             f"split r={r} lost the saved rows its fill kept"),
            (saved > shares.saved and len(state.snapshots) > 1,
             f"saved rows hold {saved} bytes, past {shares.saved}"),
            (rows.nbytes > shares.rows and len(rows.resident()) > 1,
             f"bottom rows hold {rows.nbytes} bytes, past {shares.rows}"),
            (dense and (state.m + 1) ** 2 > shares.triangle,
             f"a dense triangle is past {shares.triangle} bytes"),
        ):
            if broken:
                raise InvariantViolation("state-budget", message)

    def after_resume(
        self, r: int, resume: Resume, row: np.ndarray, stamp: int, version: int
    ) -> None:
        """Validate a fill of split ``r`` that honoured ``resume``.

        The rows it skipped were saved under triangle version ``stamp``
        and it ran under ``version``: every acceptance in between that
        spans ``r`` must start strictly below the resume row.  In
        ``full`` mode every :data:`RESUMED_STRIDE`-th fill that skipped
        rows is repeated from the top (by ``vector``, while the triangle
        is still at ``version``), and its bottom row and saved rows must
        equal the resumed fill's and the rows the state now keeps.
        """
        self.checks += 1
        start = resume.start
        if not start:
            return
        for i_min, j_max in self.state.spans[stamp:version]:
            if i_min <= r < j_max and i_min <= start:
                raise InvariantViolation(
                    "resume-row",
                    f"split r={r} resumed from row {start}, but an acceptance "
                    f"since the saved rows' version {stamp} changed row "
                    f"{i_min} and below",
                )
        self.resumed += 1
        if (
            self.mode != "full"
            or self.resumed % RESUMED_STRIDE
            or self.state.n_found != version
        ):
            return
        full = self.state.problem_for(r, resume=Resume())
        fresh = VectorEngine().last_row(full)
        kept = self.state.snapshots[r][1]
        if fresh.tobytes() != row.tobytes() or not np.array_equal(
            full.resume.snapshots, kept
        ):
            raise InvariantViolation(
                "resume-row",
                f"split r={r} resumed from row {start} under triangle version "
                f"{version}, but the same fill from the top differs",
            )

    # -- acceptance hook ---------------------------------------------------

    def after_accept(self, alignment: "TopAlignment") -> None:
        """Validate the acceptance that just marked the triangle."""
        self.checks += 1
        accepted = set(alignment.pairs)
        overlap = accepted & self.triangle_validator.pairs
        if overlap:
            raise InvariantViolation(
                "non-overlap",
                f"top alignment #{alignment.index} re-uses "
                f"{len(overlap)} already-accepted pair(s) "
                f"(e.g. {sorted(overlap)[:3]}); top alignments must be "
                "pairwise disjoint",
            )
        prev_y, prev_x = 0, 0
        for y, x in alignment.pairs:
            if not (y <= alignment.r < x):
                raise InvariantViolation(
                    "non-overlap",
                    f"top alignment #{alignment.index} pair ({y}, {x}) does "
                    f"not straddle its split r={alignment.r}",
                )
            if y <= prev_y or x <= prev_x:
                raise InvariantViolation(
                    "non-overlap",
                    f"top alignment #{alignment.index} pairs are not "
                    f"strictly increasing at ({y}, {x})",
                )
            prev_y, prev_x = y, x
        fresh = self.triangle_validator.validate(self.state.triangle)
        if not accepted <= self.triangle_validator.pairs:
            raise InvariantViolation(
                "triangle-monotonic",
                f"top alignment #{alignment.index}'s pairs were not all "
                "marked in the triangle",
            )
        del fresh  # newly marked set; superset check above suffices

    # -- full-mode sweep ---------------------------------------------------

    def verify_upper_bounds(self, tasks: Iterable["Task"]) -> int:
        """Re-verify every queued score against a fresh realignment.

        A stale score must dominate it; a score the span rule
        (:meth:`~repro.core.tasks.Task.is_current`) calls current must
        equal it — no acceptance since touched that split's matrix, so
        realigning it changes nothing.  Of the never-filled splits with
        a finite starting bound (a block bound) every
        :data:`NEVER_FILLED_STRIDE`-th is given its first pass here —
        a different residue class each sweep, so a run of sweeps covers
        them all — and the bound must dominate it.  Returns the number
        of tasks checked.  O(n·cells); only wired up in ``full`` mode.
        """
        n = 0
        sampled = self.state.n_found % NEVER_FILLED_STRIDE
        for task in tasks:
            if task.aligned_with == NEVER_ALIGNED and (
                math.isinf(task.score) or task.r % NEVER_FILLED_STRIDE != sampled
            ):
                continue
            fresh = check_heap_upper_bound(self.state, task)
            if task.is_current(self.state.spans) and task.score > fresh + _TOL:
                raise InvariantViolation(
                    "span-current",
                    f"task r={task.r}: score {task.score} is stamped current "
                    f"under triangle version {self.state.n_found}, but a "
                    f"fresh realignment scores {fresh}; an acceptance the "
                    "stamp stepped past marked a cell of this split",
                )
            n += 1
        self.checks += n
        return n
