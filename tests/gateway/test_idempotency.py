"""Idempotency store: claim/commit/replay, races, stale locks."""

import errno
import os
import threading
import time

import pytest

from repro import durable
from repro.gateway import IdempotencyConflict, IdempotencyStore
from repro.gateway.idempotency import PendingTicket


@pytest.fixture
def store(tmp_path):
    return IdempotencyStore(tmp_path / "idem")


class TestClaimCommit:
    def test_winner_commits_then_replays(self, store):
        ticket = store.claim("acme", "run-1")
        assert isinstance(ticket, PendingTicket)
        ticket.commit("job-abc", "digest-1")
        replay = store.claim("acme", "run-1")
        assert replay == {
            "job_id": "job-abc",
            "digest": "digest-1",
            "created": replay["created"],
        }

    def test_keys_scoped_per_tenant(self, store):
        ticket = store.claim("acme", "run-1")
        ticket.commit("job-acme", "d")
        other = store.claim("beta", "run-1")
        assert isinstance(other, PendingTicket)
        other.abort()

    def test_abort_releases_key_for_retake(self, store):
        ticket = store.claim("acme", "run-1")
        ticket.abort()
        retaken = store.claim("acme", "run-1")
        assert isinstance(retaken, PendingTicket)
        retaken.commit("job-2", "d")
        assert store.peek("acme", "run-1")["job_id"] == "job-2"

    def test_commit_is_idempotent(self, store):
        ticket = store.claim("acme", "run-1")
        ticket.commit("job-1", "d")
        ticket.commit("job-2", "d")  # settled — must not overwrite
        assert store.peek("acme", "run-1")["job_id"] == "job-1"

    def test_a_failed_commit_releases_the_key(self, tmp_path, monkeypatch):
        store = IdempotencyStore(tmp_path / "idem", wait_timeout=0.2)
        ticket = store.claim("acme", "run-1")

        def full(path, data):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(durable, "atomic_write", full)
        with pytest.raises(OSError):
            ticket.commit("job-1", "d")
        monkeypatch.undo()
        # Not a 409 after wait_timeout: the lock went with the failure.
        assert isinstance(store.claim("acme", "run-1"), PendingTicket)

    def test_peek_without_claim(self, store):
        assert store.peek("acme", "nope") is None
        store.bind("acme", "run-9", "job-9", "d9")
        assert store.peek("acme", "run-9")["job_id"] == "job-9"

    def test_entries_counts(self, store):
        store.bind("acme", "a", "1", "d")
        store.bind("acme", "b", "2", "d")
        store.bind("beta", "a", "3", "d")
        assert store.entries("acme") == 2
        assert store.entries() == 3

    def test_free_text_keys_are_path_safe(self, store):
        nasty = "../../../etc/passwd\n\x00 spaces/slash"
        ticket = store.claim("acme", nasty)
        ticket.commit("job-x", "d")
        assert store.peek("acme", nasty)["job_id"] == "job-x"
        # Nothing escaped the store root.
        for path in store.root.rglob("*"):
            assert store.root in path.parents or path == store.root


class TestRaces:
    def test_exactly_one_concurrent_winner(self, tmp_path):
        store = IdempotencyStore(tmp_path / "idem", wait_timeout=5.0)
        results = []
        barrier = threading.Barrier(8)

        def contend():
            barrier.wait()
            outcome = store.claim("acme", "race-key")
            if isinstance(outcome, PendingTicket):
                time.sleep(0.02)  # hold the lock while losers poll
                outcome.commit("job-won", "d")
                results.append("won")
            else:
                results.append(outcome["job_id"])

        threads = [threading.Thread(target=contend) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results.count("won") == 1
        assert all(r in ("won", "job-won") for r in results)

    def test_loser_times_out_with_conflict(self, tmp_path):
        store = IdempotencyStore(
            tmp_path / "idem", wait_timeout=0.05, poll_interval=0.01
        )
        ticket = store.claim("acme", "slow")
        assert isinstance(ticket, PendingTicket)
        with pytest.raises(IdempotencyConflict):
            store.claim("acme", "slow")
        ticket.abort()

    def test_stale_lock_is_broken(self, tmp_path):
        store = IdempotencyStore(
            tmp_path / "idem", wait_timeout=2.0, stale_lock_seconds=0.01
        )
        ticket = store.claim("acme", "crashed")
        assert isinstance(ticket, PendingTicket)
        # Simulate a crashed winner: age the lock past the stale bound.
        lock = ticket._lock
        old = time.time() - 5.0
        os.utime(lock, (old, old))
        retaken = store.claim("acme", "crashed")
        assert isinstance(retaken, PendingTicket)
        retaken.commit("job-recovered", "d")
        assert store.peek("acme", "crashed")["job_id"] == "job-recovered"
