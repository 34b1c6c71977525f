"""Seeded-violation tests for the RPR003 lock-discipline detector.

The detector infers the guarded attribute set from the class's own
majority behaviour (lockset style), so each test builds a small class
that mutates shared state both under and outside its lock.
"""

from __future__ import annotations

import ast
import textwrap

from repro.analysis.locks import MUTATING_METHODS, check_lock_discipline


def _check(source: str):
    source = textwrap.dedent(source)
    return check_lock_discipline(ast.parse(source), source, "sched.py")


RACY_SCHEDULER = """
    import threading

    class Scheduler:
        def __init__(self):
            self._cond = threading.Condition()
            self._inflight = {}

        def checkout(self, r, task):
            with self._cond:
                self._inflight[r] = task

        def finish(self, r):
            del self._inflight[r]  # the seeded race: no lock held
"""


def test_rpr003_flags_seeded_unlocked_mutation():
    findings = _check(RACY_SCHEDULER)
    assert len(findings) == 1
    diag = findings[0]
    assert diag.rule == "RPR003"
    assert "Scheduler.finish" in diag.message
    assert "_inflight" in diag.message


def test_rpr003_quiet_when_every_mutation_is_locked():
    findings = _check(
        """
        import threading

        class Scheduler:
            def __init__(self):
                self._cond = threading.Condition()
                self._inflight = {}

            def checkout(self, r, task):
                with self._cond:
                    self._inflight[r] = task

            def finish(self, r):
                with self._cond:
                    del self._inflight[r]
        """
    )
    assert findings == []


def test_rpr003_init_is_exempt():
    # __init__ populating shared state before any thread exists is fine
    # (both classes above rely on this); an unrelated attribute that is
    # never mutated under the lock is not guarded at all.
    findings = _check(
        """
        import threading

        class Worker:
            def __init__(self):
                self.lock = threading.Lock()
                self.results = []
                self.name = "w0"

            def run(self):
                with self.lock:
                    self.results.append(1)

            def rename(self, name):
                self.name = name
        """
    )
    assert findings == []


def test_rpr003_flags_mutating_method_call_outside_lock():
    findings = _check(
        """
        import threading

        class Queue:
            def __init__(self):
                self.lock = threading.Lock()
                self.items = []

            def put(self, x):
                with self.lock:
                    self.items.append(x)

            def put_fast(self, x):
                self.items.append(x)
        """
    )
    assert [d.rule for d in findings] == ["RPR003"]
    assert "put_fast" in findings[0].message


def test_rpr003_holds_lock_marker_accepts_callee():
    findings = _check(
        """
        import threading

        class Scheduler:
            def __init__(self):
                self._cond = threading.Condition()
                self._done = 0

            def step(self):
                with self._cond:
                    self._done += 1
                    self._finish()

            def _finish(self):  # repro-lint: holds-lock
                self._done += 1
        """
    )
    assert findings == []


def test_rpr003_flags_holds_lock_callee_invoked_unlocked():
    findings = _check(
        """
        import threading

        class Scheduler:
            def __init__(self):
                self._cond = threading.Condition()
                self._done = 0

            def step(self):
                with self._cond:
                    self._done += 1

            def hurry(self):
                self._finish()  # contract not discharged

            def _finish(self):  # repro-lint: holds-lock
                self._done += 1
        """
    )
    assert len(findings) == 1
    assert "holds-lock" in findings[0].message
    assert "hurry" in findings[0].message


def test_rpr003_ignores_lockless_classes():
    findings = _check(
        """
        class Plain:
            def __init__(self):
                self.items = []

            def add(self, x):
                self.items.append(x)
        """
    )
    assert findings == []


def test_rpr003_nested_function_mutations_not_double_counted():
    # A callback defined inside a locked region runs later, outside the
    # lock — the scanner must not treat its body as locked, nor crash.
    findings = _check(
        """
        import threading

        class Scheduler:
            def __init__(self):
                self._cond = threading.Condition()
                self._inflight = {}

            def checkout(self, r, task):
                with self._cond:
                    self._inflight[r] = task

                    def callback():
                        return None

                    return callback
        """
    )
    assert findings == []


def test_rpr003_knows_this_repos_container_mutators():
    # The queue/triangle mutators the schedulers actually call must be
    # in the recognised set, or real races would go unseen.
    assert {"insert", "pop_highest", "mark", "put"} <= set(MUTATING_METHODS)
