"""The disk-spool job queue: ordering, backpressure, claims, recovery."""

import pytest

from repro.service import BacklogFull, SpoolQueue


@pytest.fixture()
def queue(tmp_path):
    return SpoolQueue(tmp_path / "spool", capacity=4)


class TestOrdering:
    def test_fifo_within_one_priority(self, queue):
        for job in ("alpha", "beta", "gamma"):
            queue.submit(job)
        assert [queue.claim() for _ in range(3)] == ["alpha", "beta", "gamma"]

    def test_higher_priority_first(self, queue):
        queue.submit("low", priority=0)
        queue.submit("high", priority=10)
        queue.submit("mid", priority=5)
        assert [queue.claim() for _ in range(3)] == ["high", "mid", "low"]

    def test_negative_priority_sorts_last(self, queue):
        queue.submit("background", priority=-5)
        queue.submit("normal", priority=0)
        assert queue.claim() == "normal"

    def test_claim_empty_returns_none(self, queue):
        assert queue.claim() is None


class TestTags:
    def test_smaller_tag_first_within_a_priority(self, queue):
        queue.submit("late-tag", tag=2_000_000)
        queue.submit("early-tag", tag=1_000_000)
        queue.submit("urgent", priority=1, tag=9_000_000)
        assert [queue.claim() for _ in range(3)] == ["urgent", "early-tag", "late-tag"]

    def test_head_tag_is_per_priority_and_ignores_claimed(self, queue):
        assert queue.head_tag() is None
        queue.submit("a", tag=5)
        queue.submit("b", tag=7)
        queue.submit("c", priority=2, tag=9)
        assert (queue.head_tag(), queue.head_tag(2), queue.head_tag(1)) == (5, 9, None)
        assert queue.claim() == "c" and queue.claim() == "a"
        assert (queue.head_tag(), queue.head_tag(2)) == (7, None)
        assert queue.tags() == {"a": (0, 5), "b": (0, 7), "c": (2, 9)}

    def test_a_marker_from_before_tags_is_still_claimed_and_discarded(self, queue):
        """The parent's three-field key (priority, nanotime, id) after
        an upgrade: its nanotime reads as a large tag, so it sorts —
        as it did — behind nothing older and is found by job id."""
        (queue.queued_dir / "19999.01790985600000000000.oldqueued").touch()
        (queue.queued_dir / "19996.01790985600000000001.oldurgent").touch()
        (queue.claimed_dir / "19999.01790985500000000000.oldclaimed").touch()
        assert set(queue.tags()) == {"oldqueued", "oldurgent", "oldclaimed"}
        assert queue.tags()["oldurgent"] == (3, 1790985600000000001)
        assert queue.head_tag() == 1790985600000000000
        assert queue.recover() == ["oldclaimed"]
        assert [queue.claim() for _ in range(3)] == [
            "oldurgent", "oldclaimed", "oldqueued",
        ]
        assert queue.release("oldqueued") and queue.discard("oldqueued")
        assert queue.discard("oldclaimed") and queue.discard("oldurgent")
        assert queue.depth() == 0 and queue.in_flight() == 0


class TestBackpressure:
    def test_submit_raises_at_capacity(self, queue):
        for i in range(4):
            queue.submit(f"job{i}")
        with pytest.raises(BacklogFull) as excinfo:
            queue.submit("overflow")
        err = excinfo.value
        assert err.depth == 4
        assert err.capacity == 4
        assert err.retry_after >= 1

    def test_claimed_jobs_count_against_capacity(self, queue):
        for i in range(4):
            queue.submit(f"job{i}")
        queue.claim()
        assert queue.depth() == 3
        assert queue.in_flight() == 1
        with pytest.raises(BacklogFull):
            queue.submit("overflow")

    def test_zero_capacity_is_unbounded(self, tmp_path):
        queue = SpoolQueue(tmp_path / "s", capacity=0)
        for i in range(100):
            queue.submit(f"job{i}")
        assert queue.depth() == 100

    def test_terminal_discard_frees_a_slot(self, queue):
        for i in range(4):
            queue.submit(f"job{i}")
        queue.claim()
        queue.discard("job0")
        queue.submit("replacement")  # must not raise


class TestClaims:
    def test_claim_moves_marker(self, queue):
        queue.submit("job")
        assert queue.claim() == "job"
        assert queue.depth() == 0
        assert queue.in_flight() == 1

    def test_each_marker_claimed_exactly_once(self, queue):
        queue.submit("solo")
        assert queue.claim() == "solo"
        assert queue.claim() is None

    def test_release_requeues(self, queue):
        queue.submit("job")
        queue.claim()
        assert queue.release("job")
        assert queue.depth() == 1
        assert queue.claim() == "job"  # claimable again

    def test_release_preserves_priority_position(self, queue):
        queue.submit("urgent", priority=9)
        queue.submit("routine", priority=0)
        assert queue.claim() == "urgent"
        queue.release("urgent")
        assert queue.claim() == "urgent"  # still ahead of routine

    def test_discard_from_either_side(self, queue):
        queue.submit("queued-side")
        queue.submit("claimed-side")
        queue.claim()  # claims queued-side (FIFO)
        assert queue.discard("claimed-side")
        assert queue.discard("queued-side")
        assert not queue.discard("queued-side")
        assert queue.depth() == 0 and queue.in_flight() == 0


class TestRecovery:
    def test_recover_requeues_stranded_claims(self, queue):
        queue.submit("a")
        queue.submit("b")
        queue.claim()
        queue.claim()
        assert sorted(queue.recover()) == ["a", "b"]
        assert queue.depth() == 2
        assert queue.in_flight() == 0

    def test_recover_empty_is_noop(self, queue):
        assert queue.recover() == []

    def test_state_survives_reopen(self, tmp_path):
        first = SpoolQueue(tmp_path / "s", capacity=4)
        first.submit("persisted", priority=3)
        reopened = SpoolQueue(tmp_path / "s", capacity=4)
        assert reopened.depth() == 1
        assert reopened.claim() == "persisted"
