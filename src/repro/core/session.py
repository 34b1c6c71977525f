"""The best-first driver: one resumable, lane-batched Figure 5 loop.

:class:`TopAlignmentSession` is the only best-first loop in the
package.  :func:`~repro.core.topalign.find_top_alignments` runs it to
``k`` and returns; the service worker keeps one alive across
checkpoints; "compute a few, inspect, ask for more" (§2.2: "more top
alignments increase Repro's sensitivity") calls :meth:`extend` again.
The live heap, override triangle and bottom-row store survive between
calls, so ``extend(1)`` k times performs the alignments of one
``extend(k)``.

**Checkout and absorb.**  Every execution mode of the paper is the same
queue with a different way of getting an alignment computed, so the
loop is split where they differ:

* :meth:`~TopAlignmentSession.checkout` pops the head.  While it is
  current it is accepted; once it is stale it is handed out, with its
  lane-mates, as a :class:`Checkout` stamped with the triangle version
  its fills will observe, and its tasks are *in flight* until
* :meth:`~TopAlignmentSession.absorb` folds the bottom rows back in
  (put-or-shadow bookkeeping under the stamped version, speculation
  accounting) and reinserts the tasks.

:meth:`~TopAlignmentSession.extend` is checkout → engine batch → absorb
in the calling thread, so nothing else is ever in flight.  The §4.2
thread scheduler (:mod:`repro.parallel.shared`) is N threads doing the
same with the engine call outside one condition variable, the §4.3
master (:mod:`repro.parallel.master`) the same with a message to a
slave in between.  Neither owns a queue or any bookkeeping.

**Acceptance with work in flight.**  As in the paper, that parallelism
is speculative: when one task turns into a new top alignment, work in
flight on other tasks is not of interest any more — but it is not
wasted either, because the lowered scores push those tasks far back in
the queue.  The output stays the sequential algorithm's exactly:

* a current head is accepted only when it *dominates* every task in
  flight (higher score, or equal score and smaller split) — precisely
  the condition under which the sequential loop would have accepted it.
  Otherwise ``checkout`` returns ``None`` and the caller waits for an
  ``absorb``; that idleness is the load imbalance the paper reports
  around acceptances ("there is not enough parallelism to keep all
  processors busy");
* the search is exhausted only when the head cannot beat ``min_score``
  *and* no in-flight upper bound can;
* an alignment racing with an acceptance may observe a partially
  marked triangle; it is recorded under the version stamped at
  checkout.  If the acceptance spans its split, the score remains a
  valid *upper bound* (more overrides never raise scores) and the task
  is realigned before it could ever be accepted; if not, none of the
  marks is a cell of its matrix and the score is exact either way (see
  "Current means untouched");
* first-pass bottom rows are computed under the empty triangle
  (:meth:`~repro.core.topalign.TopAlignmentState.problems_for`), so they
  are the same rows whatever is accepted while they are in flight — and
  nothing can be while one is in flight at ``+inf``.

The loop merges the two ideas the paper combines for its headline
speedup:

* **best-first queue** (§3) — stale scores are upper bounds, so the
  heap's head is accepted the moment its score is current;
* **lockstep lane batches** (§4.1) — when the head is *not* current it
  is aligned together with further tasks in one engine batch.
  ``group=1`` is the strictly sequential loop: a batch of one.

**Current means untouched.**  A score is current when no acceptance
since its alignment marked a cell of its matrix.  The alignment accepted
as number ``v`` has pairs running from ``(i_min, ·)`` to ``(·, j_max)``,
both coordinates increasing, and pair ``(i, j)`` is a cell of split
``r`` iff ``i <= r < j`` — so it marks cells of exactly the splits
``i_min <= r < j_max`` (:attr:`TopAlignmentState.spans`).  For every
other split the rule is exact, not a bound: *no cell changes* (the
recurrence reads the same exchange values and the same overrides), so
*the bottom row is the same*, so *the shadow-validity mask* — bottom row
against the cached first-pass row — and the score are the same.
:meth:`Task.is_current` therefore steps a task's stamp past acceptances
that do not span it (``aligned_with`` is "current as of"): a checkpoint's
version-0 rows, a first pass that was late, a batch absorbed under an
older version all get the same test.  The paper avoids 90–97 % of
realignments by order alone; this avoids the ones order cannot — a
score that is still exact is accepted, or bounds the mate window, without
being recomputed.

**Which lane-mates.**  Work is either *owed* or *speculative*, and
that decides how many mates the head takes, ``width - 1``:

* *Owed*: the head has never been aligned.  The sequential schedule
  fills every never-aligned task whose bound beats the best fresh score
  it has seen, in some order, before it can accept anything below them —
  so the order is free and lanes cost nothing.  The mates are
  never-aligned tasks (stale ones met on the way go back to the heap)
  and ``width`` is :data:`~repro.align.lanes.OWED_LANES` — a constant
  the lane engine owns: its packer cuts the chunk into rows of at most
  ``MAX_ROW_CELLS`` cells, and a first pass stays several checkouts for
  threads or slaves to share.
* *Speculative*: the head is stale; ``width`` is ``group``.

The lockstep kernel pays for the padded rectangle around a batch, so
mates are chosen for *shape*: from a window of the (at most
``2 * (width - 1)``) leading candidates the driver takes the
``width - 1`` whose split points lie nearest the head's — neighbouring
splits have near-equal matrices (the paper's "neighbouring matrices",
Figure 7) — and returns the rest to the heap.  The window never looks
past the first current (or exhausted) task: a current task above the
remaining heap is the next acceptance candidate — a fresh score, so a
never-aligned bound under it is not owed — and anything below it is
work the sequential loop may never reach.  Right after an acceptance
most of the heap is still current, so that cut usually comes early.

**Speculation and waste.**  The realignment lanes are speculative in
exactly the paper's §5 sense.  When the head ``X`` is accepted at score
``A``, a sequential loop continuing from the same heap would have
realigned precisely the tasks whose stale heap key preceded
``(A, X.r)`` — so a speculatively realigned lane whose stale key did
*not* precede it was wasted work, and ``RunStats.speculative_waste``
counts exactly those.  With mates taken in strict score order every lane
of an earlier batch precedes the current head, hence the accepted key:
waste is at most ``group - 1`` per acceptance.  Picking by adjacency can
skip a window task ``U`` for a lower-scored mate ``T``; ``T`` is wasted
only if the acceptance lands between them, which needs fewer than
``2 * group`` useful stale tasks left above ``A`` — and at most
``group - 1`` such mates per remaining batch
(``tests/core/test_batched.py`` holds the measured total under two per
acceptance and the extra cells under a tenth of the sequential run's).
First passes are every schedule's work and are never counted.  With
other batches in flight the head lane is speculation too, judged by the
same rule, and a realignment absorbed after an acceptance that spans its
split is waste outright.

**Equivalence guarantee.**  Accepted top alignments are *bit-identical*
for every ``group``, every mate choice and every dispatch policy:

* acceptance fires only when the popped head is current, i.e. its score
  is exact under the current triangle and dominates every queued and
  in-flight score — each of which is an upper bound on its own fresh
  score.  The accepted task therefore attains the maximum fresh score,
  and the heap key ``(-score, r)`` resolves ties to the smallest split
  point;
* speculative realignment only *refreshes* scores earlier than the
  sequential schedule would — it never changes what any score converges
  to, because a task's fresh score is a pure function of its split and
  the triangle version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..align.base import DEFAULT_ENGINE, DEFAULT_GROUP, AlignmentProblem
from ..align.lanes import OWED_LANES
from ..obs import get_registry
from ..obs import span as obs_span
from ..scoring.exchange import ExchangeMatrix
from ..scoring.gaps import GapPenalties
from ..sequences.sequence import Sequence
from .result import RunStats, TopAlignment
from .tasks import NEVER_ALIGNED, Task, TaskQueue
from .topalign import TopAlignmentState

__all__ = ["Checkout", "TopAlignmentSession"]

#: Bucket boundaries for the driver-level batch-width histogram —
#: lane groups around the paper's SSE2 width, up to an owed chunk.
_BATCH_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 32.0, 64.0)


@dataclass
class Checkout:
    """One batch of tasks handed out for (re)alignment.

    ``problems[i]`` is the alignment problem of ``tasks[i]`` under
    triangle ``version``; whoever computes their bottom rows — this
    thread, another thread, a slave rebuilding them from ``task.r`` and
    ``problem.override is not None`` — returns them through
    :meth:`TopAlignmentSession.absorb`.
    """

    tasks: list[Task]
    problems: list[AlignmentProblem]
    version: int
    #: Lanes from this index on are speculation: 1 when nothing else was
    #: in flight (the head is the sequential schedule's own next step).
    speculative_from: int


class TopAlignmentSession:
    """A resumable, lane-batched Figure 5 loop.

    Usage::

        session = TopAlignmentSession(seq, exchange, gaps)
        first_ten = session.extend(10)
        more = session.extend(5)          # continues, no recomputation
        all_so_far = session.alignments   # 15 alignments

    ``group`` is the maximum number of stale tasks realigned per engine
    batch (the paper's G: 4 for SSE, 8 for SSE2; 1 = sequential, one
    problem per engine call).  First passes are not speculation and go
    out in chunks sized by the lane engine (see the module docstring).
    The state sizes its stores itself (no memory or triangle option:
    :class:`~repro.core.topalign.TopAlignmentState`).
    """

    def __init__(
        self,
        sequence: Sequence,
        exchange: ExchangeMatrix,
        gaps: GapPenalties = GapPenalties(),
        *,
        engine: str = DEFAULT_ENGINE,
        group: int = DEFAULT_GROUP,
        min_score: float = 0.0,
    ) -> None:
        state = TopAlignmentState(sequence, exchange, gaps, engine=engine)
        self._attach(state, group, min_score)

    @classmethod
    def from_state(
        cls,
        state: TopAlignmentState,
        *,
        group: int = DEFAULT_GROUP,
        min_score: float = 0.0,
    ) -> "TopAlignmentSession":
        """Wrap an existing (e.g. checkpoint-restored) search state.

        The fresh task queue holds upper bounds under the restored
        triangle (:meth:`TopAlignmentState.make_tasks`), so
        :meth:`extend` continues exactly where the original run stopped
        — this is what lets a service worker resume a killed job from
        its last checkpoint instead of restarting it.
        """
        session = cls.__new__(cls)
        session._attach(state, group, min_score)
        return session

    def _attach(self, state: TopAlignmentState, group: int, min_score: float) -> None:
        if group < 1:
            raise ValueError("group must be >= 1")
        self._state = state
        self.group = group
        self.min_score = min_score
        state.stats.group = group
        checker = state.invariants
        self._queue = TaskQueue(guard=checker.guard_task if checker is not None else None)
        if state.prune_context is not None:
            # A split whose bound cannot beat min_score is retired here,
            # unfilled (see TopAlignmentState.make_tasks).
            state.prune_context.configure(min_score)
        for task in state.make_tasks():
            self._queue.insert(task)
        self._exhausted = False
        # Stale heap keys ``(-score, r)`` of the tasks checked out and
        # not yet absorbed.
        self._inflight: dict[int, tuple[float, int]] = {}
        #: Realignments issued as speculation (see :class:`Checkout`),
        #: wasted or not; first passes are excluded — every mode
        #: performs them.
        self.speculative_lanes = 0
        # Stale heap keys of the lanes realigned at the current triangle
        # version (see "Speculation and waste").
        self._speculated: dict[int, tuple[float, int]] = {}

    # -- inspection --------------------------------------------------------

    @property
    def alignments(self) -> list[TopAlignment]:
        """Every top alignment accepted so far, in acceptance order."""
        return list(self._state.found)

    @property
    def stats(self) -> RunStats:
        """Cumulative run statistics."""
        return self._state.stats

    @property
    def state(self) -> TopAlignmentState:
        """The underlying search state (triangle, bottom rows, ...)."""
        return self._state

    @property
    def exhausted(self) -> bool:
        """True when no further alignment can beat ``min_score``."""
        return self._exhausted

    def __len__(self) -> int:
        return len(self._state.found)

    def finished(self, target: int) -> bool:
        """True when ``target`` alignments are held or none remain."""
        return self._state.n_found >= target or self._exhausted

    # -- the resumable loop --------------------------------------------------

    def _gather(self, head: Task) -> list[Task]:
        """``head`` plus its lane-mates (see module docstring)."""
        if self.group == 1:
            return [head]
        queue, spans = self._queue, self._state.spans
        owed = head.aligned_with == NEVER_ALIGNED
        width = OWED_LANES if owed else self.group
        window: list[Task] = []
        passed: list[Task] = []  # popped, not taken: back to the heap
        while len(window) < 2 * (width - 1) and queue:
            candidate = queue.pop_highest()
            if candidate.score <= self.min_score or candidate.is_current(spans):
                passed.append(candidate)
                break
            if owed and candidate.aligned_with != NEVER_ALIGNED:
                passed.append(candidate)
            else:
                window.append(candidate)
        if len(window) >= width:
            # Stable sort: equally distant tasks keep their score order.
            window.sort(key=lambda task: abs(task.r - head.r))
            passed += window[width - 1 :]
            del window[width - 1 :]
        for task in passed:
            queue.insert(task)
        return [head, *window]

    def _accept(self, head: Task) -> None:
        state, queue = self._state, self._queue
        with obs_span("accept", r=head.r, index=state.n_found):
            state.accept_task(head)
        # Lanes the sequential schedule would not have reached before
        # this acceptance were wasted; the rest (and the head) were
        # realignments it performs too.
        self._speculated.pop(head.r, None)
        accepted = (-head.score, head.r)
        state.stats.speculative_waste += sum(
            key > accepted for key in self._speculated.values()
        )
        self._speculated.clear()
        queue.insert(head)
        registry = get_registry()
        if registry.collecting:
            registry.gauge(
                "repro_heap_depth",
                help="Best-first task-heap size observed at the last acceptance",
            ).set(len(queue))
        checker = state.invariants
        if checker is not None and checker.mode == "full":
            # Every queued upper bound must still dominate its fresh
            # score under the just-grown triangle.
            checker.verify_upper_bounds(queue.tasks())

    def checkout(self, target: int) -> Checkout | None:
        """Accept while the head allows it, then hand out the next batch.

        Returns ``None`` when there is nothing to hand out *now*: the
        session is :meth:`finished` for ``target``, or it waits for an
        :meth:`absorb` (the head does not dominate the work in flight,
        or everything is in flight).
        """
        state, queue, inflight = self._state, self._queue, self._inflight
        while queue and not self.finished(target):
            head = queue.pop_highest()
            if head.score <= self.min_score:
                # Stale scores are upper bounds, so nothing queued can
                # still beat min_score: the sequence is exhausted unless
                # an in-flight bound can.
                queue.insert(head)
                self._exhausted = all(
                    -key[0] <= self.min_score for key in inflight.values()
                )
                checker = state.invariants
                if self._exhausted and checker is not None and checker.mode == "full":
                    # The splits retired unfilled: their bounds must hold.
                    checker.verify_upper_bounds(queue.tasks())
                return None
            key = (-head.score, head.r)
            if head.is_current(state.spans):
                if any(other < key for other in inflight.values()):
                    queue.insert(head)
                    return None
                self._accept(head)
                continue
            tasks = self._gather(head)
            batch = Checkout(
                tasks, state.problems_for(tasks), state.n_found, 0 if inflight else 1
            )
            for task in tasks:
                inflight[task.r] = (-task.score, task.r)
            registry = get_registry()
            if registry.collecting:
                registry.histogram(
                    "repro_driver_batch_lanes",
                    buckets=_BATCH_BUCKETS,
                    help="Tasks (re)aligned per engine batch",
                ).observe(len(tasks))
            return batch
        return None

    def absorb(self, batch: Checkout, rows: list[np.ndarray], seconds: float) -> None:
        """Fold the bottom rows of a checked-out batch back in."""
        state = self._state
        state.record_rows(batch.tasks, batch.problems, rows, batch.version, seconds)
        for lane, task in enumerate(batch.tasks):
            key = self._inflight.pop(task.r)  # the stale key it went out with
            self._queue.insert(task)
            # Speculation concerns realignments: first passes are
            # stamped 0 and are every mode's work.
            if task.aligned_with != batch.version or not batch.version:
                continue
            if lane >= batch.speculative_from:
                self.speculative_lanes += 1
            if task.is_current(state.spans):
                self._speculated[task.r] = key
            else:
                state.stats.speculative_waste += 1

    def extend(self, k: int) -> list[TopAlignment]:
        """Accept up to ``k`` *additional* top alignments; returns the new ones.

        Returns fewer (possibly zero) when the sequence is exhausted.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        state = self._state
        start = state.n_found
        with obs_span("best_first", k=k, group=self.group, m=state.m):
            while (batch := self.checkout(start + k)) is not None:
                self.absorb(batch, *state.fill(batch.problems))
        return list(state.found[start:])

