"""Shard executor half of the fixture.

Seeds RPR013's lease-path case (``run_lease`` blocks while holding a
lease).  ``Executor`` gives the call graph one edge of each remaining
resolution shape: a constructor, a ``self.<attr>.method`` call through
a typed attribute, and a module-local function.
"""

import time


def run_lease(lease, budget=1.0):
    time.sleep(min(budget, 1.0))
    return lease


def execute(shard):
    _check(shard)
    return shard


def _check(shard):
    assert shard, "empty shard"


class Ledger:
    def __init__(self):
        self.seen = []

    def note(self, shard):
        self.seen.append(shard)


class Executor:
    def __init__(self):
        self.ledger = Ledger()

    def run(self, shard):
        self.ledger.note(shard)
        return execute(shard)
