"""Tasks and the best-first task queue (Figure 5).

One task per split point ``r``.  A task's ``score`` is either an upper
bound (the score of its most recent alignment, possibly computed under
an *older* override triangle) or the true current score (when
``aligned_with == <current number of top alignments>``).  Because a
newer triangle only overrides *more* entries, realignment can never
raise a score — stale scores are valid upper bounds, which is exactly
what makes best-first selection safe and prunes 90–97 % of
realignments (§3).

``aligned_with`` is "current as of", not "last aligned under": an
accepted alignment whose pairs run from ``(i_min, ·)`` to ``(·, j_max)``
marks cells of split ``r`` only when ``i_min <= r < j_max``, and every
other split keeps its score exactly (:mod:`repro.core.session`,
"Current means untouched"), so :meth:`Task.is_current` steps the stamp
past acceptances that do not span the split instead of calling the task
stale.

The queue is a binary max-heap keyed by ``(score, -r)`` so that ties
resolve to the smallest split point, keeping the whole algorithm
deterministic (and the old/new equivalence testable).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

__all__ = ["Task", "TaskQueue", "NEVER_ALIGNED"]

#: ``AlignedWithTopNum`` of a task that has never been aligned (line 5
#: of Figure 5 uses -1).
NEVER_ALIGNED = -1


@dataclass
class Task:
    """One split-pair work item.

    Attributes
    ----------
    r:
        The split point: prefix ``S[1:r]`` vs suffix ``S[r+1:m]``.
    score:
        Upper bound or exact score (see module docstring); starts at
        ``+inf`` so every task is aligned once before any acceptance.
    aligned_with:
        Override-triangle version the score is known to be exact under:
        that of the most recent alignment, advanced past every later
        acceptance that does not span ``r`` (``NEVER_ALIGNED``
        initially).
    """

    r: int
    score: float = math.inf
    aligned_with: int = NEVER_ALIGNED

    def is_current(self, spans: Sequence[tuple[int, int]]) -> bool:
        """Whether the score is exact under the current triangle.

        ``spans[v]`` is ``(i_min, j_max)`` of the alignment accepted as
        number ``v`` (:attr:`TopAlignmentState.spans`).  The stamp stops
        at the first acceptance that touches this split, so a stale task
        is re-examined in O(1).
        """
        version, r = self.aligned_with, self.r
        if version < 0:
            return False
        n_found = len(spans)
        while version < n_found:
            i_min, j_max = spans[version]
            if i_min <= r < j_max:
                break
            version += 1
        self.aligned_with = version
        return version == n_found


class TaskQueue:
    """Max-heap of tasks ordered by score (ties: smallest ``r`` first).

    Mirrors Figure 5's ``InsertTask`` / ``GetTaskWithHighestScore``: a
    task is either in the queue or checked out, never both, so no lazy
    deletion is needed.

    An optional ``guard`` callable is invoked on every insert — the
    invariant checker (:mod:`repro.analysis.invariants`) uses it to
    validate tasks as they enter the queue when
    ``REPRO_CHECK_INVARIANTS`` is set.
    """

    def __init__(self, guard: Callable[[Task], None] | None = None) -> None:
        # ``(-score, r, task)``: ``r`` is unique in a queue, so the
        # tuple comparison never reaches the task.
        self._heap: list[tuple[float, int, Task]] = []
        self._guard = guard

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def tasks(self) -> Iterator[Task]:
        """Iterate the queued tasks in unspecified order (debug/checks)."""
        for entry in self._heap:
            yield entry[2]

    def insert(self, task: Task) -> None:
        """(Re)insert a task at the position its score dictates."""
        if self._guard is not None:
            self._guard(task)
        heapq.heappush(self._heap, (-task.score, task.r, task))

    def pop_highest(self) -> Task:
        """Remove and return the task with the highest score."""
        if not self._heap:
            raise IndexError("pop from empty task queue")
        return heapq.heappop(self._heap)[2]
