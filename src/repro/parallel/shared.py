"""Shared-memory dynamic speculative scheduler (§4.2).

Worker threads repeatedly pull the highest-score task that is not
already checked out by another thread, (re)align it, and reinsert it
with its new score.  As in the paper, the parallelism is speculative:
when one task turns into a new top alignment, work in flight on other
tasks is not of interest any more — but it is not wasted either,
because the lowered scores push those tasks far back in the queue.

The scheduler preserves the sequential algorithm's output exactly.  A
current-scored task is accepted only when it *dominates* every task
still in flight (higher score, or equal score with a smaller split
point) — precisely the condition under which the sequential best-first
loop would have accepted it.  Threads that find the head current but
not yet dominant wait; that idleness is the same load imbalance the
paper reports around acceptances ("there is not enough parallelism to
keep all processors busy").

Concurrency notes:

* The override triangle is mutated only inside acceptances, which run
  under the coordinator lock.  An alignment racing with an acceptance
  may observe a partially marked triangle; it is tagged with the
  version observed at start, so its score remains a valid *upper bound*
  (more overrides never raise scores) and the task is realigned before
  it could ever be accepted.
* First-pass bottom rows are cached only from alignments that ran under
  the empty triangle.  That is guaranteed structurally: no acceptance
  can dominate a never-aligned task's ``+inf`` score, so the first
  acceptance happens strictly after every first pass completed.
"""

from __future__ import annotations

import threading
import time

from ..obs import span as obs_span
from ..scoring.exchange import ExchangeMatrix
from ..scoring.gaps import GapPenalties
from ..sequences.sequence import Sequence
from ..core.result import RunStats, TopAlignment
from ..core.tasks import TaskQueue
from ..core.topalign import TopAlignmentState

__all__ = ["ThreadedTopAlignmentRunner", "find_top_alignments_threaded"]


class ThreadedTopAlignmentRunner:
    """Runs the Figure 5 loop with ``n_threads`` speculative workers."""

    def __init__(
        self,
        state: TopAlignmentState,
        k: int,
        *,
        n_threads: int = 2,
        min_score: float = 0.0,
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        self.state = state
        self.k = k
        self.n_threads = n_threads
        self.min_score = min_score
        self._cond = threading.Condition()
        checker = state.invariants
        self._queue = TaskQueue(
            guard=checker.guard_task if checker is not None else None
        )
        self._inflight: dict[int, tuple[float, int]] = {}  # r -> (score, r)
        self._done = False
        self._error: BaseException | None = None
        #: Alignments performed beyond what the sequential run needed —
        #: the speculation overhead of §5.2 (up to 8.4 % in the paper).
        self.speculative_alignments = 0

    # -- public ------------------------------------------------------------

    def run(self) -> tuple[list[TopAlignment], RunStats]:
        """Execute and return ``(top_alignments, stats)``."""
        with self._cond:  # workers do not exist yet; lock kept for discipline
            for task in self.state.make_tasks():
                self._queue.insert(task)
        threads = [
            threading.Thread(target=self._worker, name=f"repro-worker-{i}")
            for i in range(self.n_threads)
        ]
        with obs_span(
            "best_first", driver="shared", k=self.k, threads=self.n_threads
        ):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        if self._error is not None:
            raise self._error
        return list(self.state.found), self.state.stats

    # -- worker loop ---------------------------------------------------------

    def _dominates_inflight(self, score: float, r: int) -> bool:
        return all(
            s < score or (s == score and ri > r)
            for s, ri in self._inflight.values()
        )

    def _worker(self) -> None:
        try:
            self._worker_loop()
        except BaseException as exc:  # propagate to run()
            with self._cond:
                self._error = exc
                self._done = True
                self._cond.notify_all()

    def _worker_loop(self) -> None:
        state = self.state
        while True:
            with self._cond:
                task = None
                while task is None:
                    if self._done:
                        return
                    if not self._queue:
                        if not self._inflight:
                            self._finish()
                            return
                        self._cond.wait()
                        continue
                    candidate = self._queue.pop_highest()
                    if candidate.score <= self.min_score:
                        # Exhausted — unless an in-flight upper bound
                        # could still beat the threshold.
                        self._queue.insert(candidate)
                        if any(
                            s > self.min_score for s, _ in self._inflight.values()
                        ):
                            self._cond.wait()
                            continue
                        self._finish()
                        return
                    if candidate.is_current(state.n_found):
                        if not self._dominates_inflight(candidate.score, candidate.r):
                            self._queue.insert(candidate)
                            self._cond.wait()
                            continue
                        state.accept_task(candidate)
                        self._queue.insert(candidate)
                        if state.n_found >= self.k:
                            self._finish()
                            return
                        self._cond.notify_all()
                        continue
                    task = candidate
                    start_version = state.n_found
                    prev_score, prev_version = task.score, task.aligned_with
                    self._inflight[task.r] = (task.score, task.r)
                    problem = state.problem_for(task.r)

            # Engine work happens outside the lock.
            t0 = time.perf_counter()
            row = state.engine.last_row(problem)
            elapsed = time.perf_counter() - t0

            with self._cond:
                del self._inflight[task.r]
                state.stats.alignments += 1
                state.stats.cells += problem.cells
                state.stats.engine_seconds += elapsed
                if task.r not in state.bottom_rows:
                    state.bottom_rows.put(task.r, row)
                    score = float(row.max())
                else:
                    state.stats.realignments += 1
                    state.stats.realignments_per_top[-1] += 1
                    score = state.bottom_rows.score_of(task.r, row)
                    if start_version != state.n_found:
                        # Sequential would not have run this alignment
                        # (the triangle moved on mid-flight).
                        self.speculative_alignments += 1
                task.score = score
                task.aligned_with = start_version
                if state.invariants is not None:
                    state.invariants.after_align(
                        task,
                        row,
                        prev_score=prev_score,
                        prev_version=prev_version,
                    )
                self._queue.insert(task)
                self._cond.notify_all()

    def _finish(self) -> None:  # repro-lint: holds-lock
        self._done = True
        self._cond.notify_all()


def find_top_alignments_threaded(
    sequence: Sequence,
    k: int,
    exchange: ExchangeMatrix,
    gaps: GapPenalties = GapPenalties(),
    *,
    n_threads: int = 2,
    engine: str = "vector",
    min_score: float = 0.0,
) -> tuple[list[TopAlignment], RunStats]:
    """Threaded drop-in for :func:`repro.core.find_top_alignments`."""
    # Paper-figure schedulers: every split gets its version-0 first pass
    # (§4.2/§4.3), so the profile-derived bounds stay switched off.
    state = TopAlignmentState(sequence, exchange, gaps, engine=engine, prune=False)
    runner = ThreadedTopAlignmentRunner(
        state, k, n_threads=n_threads, min_score=min_score
    )
    return runner.run()
