"""Static neighbour-group scheduling for the lane engine (§4.1).

Matrices are grouped in fixed, consecutive groups of ``G`` split
points: group 1 holds splits 1..G, group 2 holds G+1..2G, and so on —
"group 1 contains matrices 1–4, group 2 contains matrices 5–8".  The
task queue schedules *groups*; a group's score is the score of its
best member.  When a group reaches the head:

* if its best member was already aligned with the current override
  triangle, that member is accepted as the next top alignment;
* otherwise all members are realigned *in one lane batch*, including
  members whose score is already current — that recomputation is the
  speculation the paper measures at under 0.70 % extra alignments,
  "the odds are that they have to be computed anyway".

Results are identical to the sequential algorithm: group scores are
upper bounds exactly like task scores, and acceptance still only fires
for the globally dominant current task.
"""

from __future__ import annotations

from ..core.result import RunStats, TopAlignment
from ..core.tasks import Task, TaskQueue
from ..core.topalign import TopAlignmentState
from ..scoring.exchange import ExchangeMatrix
from ..scoring.gaps import GapPenalties
from ..sequences.sequence import Sequence

__all__ = ["TaskGroup", "GroupedTopAlignmentRunner", "find_top_alignments_grouped"]


class TaskGroup:
    """A fixed set of neighbouring split tasks scheduled as one unit."""

    __slots__ = ("tasks",)

    def __init__(self, tasks: list[Task]) -> None:
        if not tasks:
            raise ValueError("a task group cannot be empty")
        self.tasks = tasks

    @property
    def score(self) -> float:
        """Group score: the best member's score (the queue key)."""
        return max(task.score for task in self.tasks)

    @property
    def first_r(self) -> int:
        """Smallest member split point (deterministic tie-break key)."""
        return self.tasks[0].r

    def best_member(self) -> Task:
        """Highest-score member; ties resolve to the smallest ``r``."""
        return max(self.tasks, key=lambda t: (t.score, -t.r))

    def stale_members(self, n_found: int) -> list[Task]:
        """Members whose score predates the current override triangle."""
        return [t for t in self.tasks if not t.is_current(n_found)]


class GroupedTopAlignmentRunner:
    """Figure 5 at group granularity, driving a batched engine."""

    def __init__(
        self,
        state: TopAlignmentState,
        k: int,
        *,
        group_size: int = 4,
        min_score: float = 0.0,
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        if group_size < 1:
            raise ValueError("group_size must be >= 1")
        self.state = state
        self.k = k
        self.group_size = group_size
        self.min_score = min_score
        #: Alignments of members that were already current — pure
        #: speculation overhead (§5.1's < 0.70 % claim).
        self.wasted_alignments = 0

    def run(self) -> tuple[list[TopAlignment], RunStats]:
        """Execute and return ``(top_alignments, stats)``."""
        state = self.state
        tasks = state.make_tasks()
        groups = [
            TaskGroup(tasks[i : i + self.group_size])
            for i in range(0, len(tasks), self.group_size)
        ]
        queue = TaskQueue()
        # TaskQueue stores Task-like items: duck-type groups through a
        # lightweight wrapper Task whose r is the group's first split.
        wrappers = {}
        for group in groups:
            wrapper = Task(r=group.first_r, score=group.score)
            wrappers[wrapper.r] = group
            queue.insert(wrapper)

        while state.n_found < self.k and queue:
            wrapper = queue.pop_highest()
            group = wrappers[wrapper.r]
            if wrapper.score <= self.min_score:
                break
            best = group.best_member()
            if best.is_current(state.n_found) and best.score == wrapper.score:
                state.accept_task(best)
            else:
                stale = len(group.stale_members(state.n_found))
                self.wasted_alignments += len(group.tasks) - stale
                state.align_tasks_batch(group.tasks)
            wrapper.score = group.score
            queue.insert(wrapper)

        return list(state.found), state.stats


def find_top_alignments_grouped(
    sequence: Sequence,
    k: int,
    exchange: ExchangeMatrix,
    gaps: GapPenalties = GapPenalties(),
    *,
    group_size: int = 4,
    engine: str = "lanes",
    min_score: float = 0.0,
) -> tuple[list[TopAlignment], RunStats]:
    """Group-scheduled drop-in for :func:`repro.core.find_top_alignments`.

    ``group_size=4`` with the int16 lane engine mirrors the paper's SSE
    configuration, ``group_size=8`` its SSE2 configuration.
    """
    # Paper-figure schedulers: every split gets its version-0 first pass
    # (§4.2/§4.3), so the profile-derived bounds stay switched off.
    state = TopAlignmentState(sequence, exchange, gaps, engine=engine, prune=False)
    runner = GroupedTopAlignmentRunner(
        state, k, group_size=group_size, min_score=min_score
    )
    return runner.run()
