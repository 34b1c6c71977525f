"""Tests for tasks and the best-first queue (Figure 5 machinery)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import NEVER_ALIGNED, Task, TaskQueue


class TestTask:
    def test_initial_state_matches_figure5(self):
        """Lines 4–5: score infinity, alignment number -1."""
        task = Task(r=3)
        assert task.score == math.inf
        assert task.aligned_with == NEVER_ALIGNED == -1

    def test_is_current(self):
        """Current = no acceptance since the stamp spans the split
        (``i_min <= r < j_max``); the stamp stops at the first that does."""
        spans = [(1, 9), (2, 8), (6, 9), (1, 3), (4, 6)]
        task = Task(r=5, score=5.0, aligned_with=2)
        assert task.is_current(spans[:2])
        assert task.is_current(spans[:4]) and task.aligned_with == 4
        assert not task.is_current(spans) and task.aligned_with == 4
        edge = Task(r=6, score=5.0, aligned_with=4)  # r == j_max: untouched
        assert edge.is_current(spans) and edge.aligned_with == 5
        assert not Task(r=4, score=5.0, aligned_with=4).is_current(spans)  # r == i_min
        assert not Task(r=5).is_current([])  # never aligned


class TestQueueOrdering:
    def test_highest_score_first(self):
        q = TaskQueue()
        for r, s in [(1, 5.0), (2, 9.0), (3, 7.0)]:
            q.insert(Task(r=r, score=s))
        assert [q.pop_highest().r for _ in range(3)] == [2, 3, 1]

    def test_ties_resolve_to_smallest_r(self):
        q = TaskQueue()
        for r in (5, 2, 9):
            q.insert(Task(r=r, score=4.0))
        assert [q.pop_highest().r for _ in range(3)] == [2, 5, 9]

    def test_infinity_sorts_first(self):
        q = TaskQueue()
        q.insert(Task(r=1, score=1e9))
        q.insert(Task(r=2))  # inf
        assert q.pop_highest().r == 2

    def test_empty_queue_errors(self):
        q = TaskQueue()
        with pytest.raises(IndexError):
            q.pop_highest()

    def test_len_and_bool(self):
        q = TaskQueue()
        assert not q and len(q) == 0
        q.insert(Task(r=1))
        assert q and len(q) == 1

    def test_reinsertion_respects_new_score(self):
        """Line 20: 'requeued at a position that depends on its score'."""
        q = TaskQueue()
        q.insert(Task(r=1, score=10.0))
        q.insert(Task(r=2, score=8.0))
        task = q.pop_highest()
        task.score = 5.0
        q.insert(task)
        assert q.pop_highest().r == 2

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 100), st.floats(0, 1e6)), min_size=1, unique_by=lambda t: t[0]))
    def test_property_pop_order_sorted(self, items):
        q = TaskQueue()
        for r, s in items:
            q.insert(Task(r=r, score=s))
        popped = [q.pop_highest() for _ in range(len(items))]
        keys = [(-t.score, t.r) for t in popped]
        assert keys == sorted(keys)
