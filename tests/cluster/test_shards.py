"""Lease scheduling: planning, failover, stealing, first-result-wins.

Every scheduler method takes ``now`` explicitly, so these tests drive
the lease clock by hand — no sleeps, no flakes.
"""

import math

import pytest

from repro.cluster.shards import (
    Shard,
    ShardScheduler,
    merge_shard_results,
    plan_record_shards,
)


class TestPlanning:
    def test_record_shards_cover_every_record_once(self):
        ranges = plan_record_shards(10, 4)
        assert ranges == [(0, 4), (4, 8), (8, 10)]

    def test_single_shard_when_fewer_records_than_size(self):
        assert plan_record_shards(3, 100) == [(0, 3)]

    def test_merge_requires_every_shard(self):
        with pytest.raises(Exception):
            merge_shard_results({0: "a"}, 2)
        assert merge_shard_results({1: "b", 0: "a"}, 2) == ["a", "b"]


def _scheduler(n=3, **kwargs):
    kwargs.setdefault("lease_seconds", 10.0)
    return ShardScheduler(
        [Shard(shard_id=i, payload={"shard_id": i}) for i in range(n)], **kwargs
    )


class TestLeasing:
    def test_leases_issue_in_shard_order(self):
        sched = _scheduler(3)
        ids = [sched.next_lease(f"n{i}", now=0.0).shard.shard_id for i in range(3)]
        assert ids == [0, 1, 2]

    def test_complete_finishes_the_job(self):
        sched = _scheduler(2)
        a = sched.next_lease("n1", now=0.0)
        b = sched.next_lease("n2", now=0.0)
        assert sched.complete(a.lease_id, "ra")
        assert not sched.done
        assert sched.complete(b.lease_id, "rb")
        assert sched.done
        assert sched.results() == {0: "ra", 1: "rb"}

    def test_expired_lease_is_reassigned(self):
        sched = _scheduler(1, lease_seconds=10.0)
        first = sched.next_lease("n1", now=0.0)
        assert sched.next_lease("n1", now=1.0) is None  # n1 already holds it
        expired = sched.expire(now=10.5)
        assert [lease.lease_id for lease in expired] == [first.lease_id]
        second = sched.next_lease("n2", now=11.0)
        assert second.shard.shard_id == 0
        assert second.lease_id != first.lease_id
        # The stale lease can no longer complete the shard.
        assert not sched.complete(first.lease_id, "stale")
        assert sched.complete(second.lease_id, "fresh")
        assert sched.results() == {0: "fresh"}

    def test_release_node_requeues_without_backoff(self):
        sched = _scheduler(1)
        lease = sched.next_lease("n1", now=0.0)
        released = sched.release_node("n1")
        assert [lost.lease_id for lost in released] == [lease.lease_id]
        # Immediately leasable again: a dead node is not the shard's fault.
        again = sched.next_lease("n2", now=0.0)
        assert again.shard.shard_id == lease.shard.shard_id
        assert again.attempt == 2  # the lost lease still spent an attempt

    def test_failed_shard_backs_off_before_retry(self):
        sched = _scheduler(1, backoff_base=1.0, backoff_cap=10.0)
        lease = sched.next_lease("n1", now=0.0)
        assert sched.fail(lease.lease_id, "boom", now=0.0) is True  # retrying
        assert sched.next_lease("n1", now=0.0) is None  # still backing off
        retry = sched.next_lease("n1", now=2.0)  # jitter <= base * 2^0 = 1s
        assert retry is not None
        assert retry.attempt == 2

    def test_backoff_until_is_when_the_retry_becomes_leasable(self):
        sched = _scheduler(1, backoff_base=1.0, backoff_cap=10.0)
        assert sched.backoff_until(now=0.0) == math.inf  # nothing backing off
        lease = sched.next_lease("n1", now=0.0)
        sched.fail(lease.lease_id, "boom", now=0.0)
        wake = sched.backoff_until(now=0.0)
        assert 0.5 < wake <= 1.0  # full jitter over base * 2^0
        assert sched.next_lease("n2", now=wake - 1e-6) is None
        assert sched.next_lease("n2", now=wake) is not None
        assert sched.backoff_until(now=wake) == math.inf

    def test_exhausted_attempts_fail_the_job(self):
        sched = _scheduler(1, max_attempts=2, backoff_base=0.0)
        for attempt in (1, 2):
            lease = sched.next_lease("n1", now=float(attempt))
            assert lease.attempt == attempt
            retrying = sched.fail(lease.lease_id, f"boom {attempt}", now=float(attempt))
        assert retrying is False
        assert sched.failed
        assert sched.failed_shard == 0
        assert "boom 2" in sched.failure

    def test_first_result_wins_duplicates_dropped(self):
        sched = _scheduler(1)
        original = sched.next_lease("n1", now=0.0)
        stolen = sched.next_lease("n2", now=5.0)  # work stealing: duplicate
        assert stolen is not None and stolen.stolen
        assert stolen.shard.shard_id == original.shard.shard_id
        assert sched.complete(stolen.lease_id, "from-thief") is True
        assert sched.complete(original.lease_id, "from-owner") is False
        assert sched.results() == {0: "from-thief"}
        assert sched.stats()["duplicates_dropped"] == 1


class TestStealing:
    def test_steal_targets_longest_running_shard(self):
        sched = _scheduler(2)
        sched.next_lease("n1", now=0.0)  # shard 0: oldest
        sched.next_lease("n2", now=3.0)  # shard 1
        stolen = sched.next_lease("n3", now=4.0)
        assert stolen.stolen
        assert stolen.shard.shard_id == 0

    def test_never_steals_onto_the_holding_node(self):
        sched = _scheduler(1)
        sched.next_lease("n1", now=0.0)
        assert sched.next_lease("n1", now=5.0) is None

    def test_duplicate_cap_bounds_stealing(self):
        sched = _scheduler(1, max_duplicates=2)
        sched.next_lease("n1", now=0.0)
        assert sched.next_lease("n2", now=1.0) is not None  # second copy
        assert sched.next_lease("n3", now=2.0) is None  # cap reached
