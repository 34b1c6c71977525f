"""Checkpoint/resume: suspended and killed jobs finish bit-identically.

``stats`` counters legitimately differ between an interrupted and an
uninterrupted run (a resumed run only counts post-resume work), so the
bit-identical comparisons cover ``top_alignments`` and ``repeats``.
"""

import functools
import tempfile
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.sequences import Sequence, pseudo_titin
from repro.service import JobSpec, JobState, job_digest
from repro.service.protocol import finder_for, result_to_dict
from repro.service.workers import (
    CHUNK_DELAY_ENV,
    WorkerPool,
    execute_job,
    open_stores,
    recover,
)


def _spec(k=6, length=80, seed=5, **overrides):
    payload = {"sequence": pseudo_titin(length, seed=seed).text, "top_alignments": k}
    payload.update(overrides)
    return JobSpec(**payload)


def _submit(store, queue, spec):
    record = store.new_job(spec.to_dict(), job_digest(spec), spec.priority)
    queue.submit(record.id, spec.priority)
    return record


def _baseline_payload(spec, digest):
    result = finder_for(spec).find(
        Sequence(spec.normalized_sequence(), spec.alphabet)
    )
    return result_to_dict(result, digest=digest, spec=spec)


class TestSuspendResume:
    def _stop_after(self, chunks):
        calls = {"n": 0}

        def should_stop():
            calls["n"] += 1
            return calls["n"] > chunks

        return should_stop

    @pytest.mark.parametrize("knobs", [{}, {"engine": "lanes", "group": 4}])
    def test_resumed_run_is_bit_identical(self, tmp_path, knobs):
        store, queue, cache = open_stores(tmp_path / "data")
        spec = _spec(**knobs)
        record = _submit(store, queue, spec)

        outcome = execute_job(
            store, cache, record, should_stop=self._stop_after(2)
        )
        assert outcome == "suspended"
        suspended = store.get(record.id)
        assert suspended.found == 2
        assert store.checkpoint_path(record.id).exists()
        assert cache.get(record.digest) is None  # nothing published yet

        # A fresh executor (fresh process in real life) picks it up.
        assert execute_job(store, cache, store.get(record.id)) == "done"
        events = [e["event"] for e in store.read_events(record.id)]
        assert "resumed" in events
        payload = cache.get(record.digest)
        baseline = _baseline_payload(spec, record.digest)
        assert payload["top_alignments"] == baseline["top_alignments"]
        assert payload["repeats"] == baseline["repeats"]

    def test_resume_repays_no_accepted_alignments(self, tmp_path):
        store, queue, cache = open_stores(tmp_path / "data")
        spec = _spec()
        record = _submit(store, queue, spec)
        execute_job(
            store, cache, record, should_stop=self._stop_after(3)
        )
        execute_job(store, cache, store.get(record.id))
        resumed = next(
            e for e in store.read_events(record.id) if e["event"] == "resumed"
        )
        # Everything accepted before the suspension was restored, not recomputed.
        assert resumed["found"] == 3

    def test_mid_run_cancel_wins_over_resume(self, tmp_path):
        store, queue, cache = open_stores(tmp_path / "data")
        record = _submit(store, queue, _spec())
        execute_job(
            store, cache, record, should_stop=self._stop_after(1)
        )
        store.request_cancel(record.id)
        assert execute_job(store, cache, store.get(record.id)) == "cancelled"
        assert store.get(record.id).state == JobState.CANCELLED
        assert not store.checkpoint_path(record.id).exists()

    def test_corrupt_checkpoint_restarts_cleanly(self, tmp_path):
        store, queue, cache = open_stores(tmp_path / "data")
        spec = _spec(k=3, length=60, seed=2)
        record = _submit(store, queue, spec)
        store.checkpoint_path(record.id).write_bytes(b"not an npz file")
        assert execute_job(store, cache, record) == "done"
        events = [e["event"] for e in store.read_events(record.id)]
        assert "checkpoint-invalid" in events
        payload = cache.get(record.digest)
        baseline = _baseline_payload(spec, record.digest)
        assert payload["top_alignments"] == baseline["top_alignments"]

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda raw: raw[: len(raw) // 2], id="truncated"),
            pytest.param(
                lambda raw: raw[:100] + bytes([raw[100] ^ 0x40]) + raw[101:],
                id="bit-flipped",
            ),
            pytest.param(lambda raw: b"", id="empty"),
        ],
    )
    def test_damaged_checkpoint_restarts_the_job(self, tmp_path, damage):
        """A real checkpoint torn by the disk (zipfile/zlib/EOF errors,
        not ValueError) must restart the job, not fail it."""
        store, queue, cache = open_stores(tmp_path / "data")
        spec = _spec(k=3, length=60, seed=2)
        record = _submit(store, queue, spec)
        outcome = execute_job(
            store, cache, record, should_stop=self._stop_after(1)
        )
        assert outcome == "suspended"
        path = store.checkpoint_path(record.id)
        path.write_bytes(damage(path.read_bytes()))

        assert execute_job(store, cache, store.get(record.id)) == "done"
        events = [e["event"] for e in store.read_events(record.id)]
        assert "checkpoint-invalid" in events and "resumed" not in events
        payload = cache.get(record.digest)
        baseline = _baseline_payload(spec, record.digest)
        assert payload["top_alignments"] == baseline["top_alignments"]
        assert payload["repeats"] == baseline["repeats"]


@functools.lru_cache(maxsize=None)
def _suspended_checkpoint():
    """``(spec, checkpoint bytes, baseline tops)`` of a job suspended
    after one chunk: a real stored checkpoint to damage."""
    spec = _spec(k=3, length=60, seed=2)
    with tempfile.TemporaryDirectory() as root:
        store, queue, cache = open_stores(root)
        record = _submit(store, queue, spec)
        stops = iter([False, True])
        outcome = execute_job(store, cache, record, should_stop=lambda: next(stops))
        assert outcome == "suspended"
        raw = store.checkpoint_path(record.id).read_bytes()
    return spec, raw, _baseline_payload(spec, job_digest(spec))["top_alignments"]


class TestDamageSweep:
    @settings(deadline=None)  # no example count: the ci-deep profile sets it
    @given(data=st.data())
    def test_any_torn_or_flipped_checkpoint_ends_in_the_baseline_tops(self, data):
        """Truncate the checkpoint at any byte, or flip any one bit of
        it: the job either rejects the file (``checkpoint-invalid``)
        and starts over, or resumes from it — and ends with the
        uninterrupted run's tops either way, never with another
        exception or other tops."""
        spec, raw, tops = _suspended_checkpoint()
        at = data.draw(st.integers(0, len(raw) - 1), label="byte")
        if data.draw(st.booleans(), label="truncate"):
            damaged = raw[:at]
        else:
            bit = data.draw(st.integers(0, 7), label="bit")
            damaged = raw[:at] + bytes([raw[at] ^ (1 << bit)]) + raw[at + 1 :]
        with tempfile.TemporaryDirectory() as root:
            store, queue, cache = open_stores(root)
            record = _submit(store, queue, spec)
            store.checkpoint_path(record.id).write_bytes(damaged)
            assert execute_job(store, cache, record) == "done"
            events = [e["event"] for e in store.read_events(record.id)]
            assert ("checkpoint-invalid" in events) != ("resumed" in events), events
            assert cache.get(record.digest)["top_alignments"] == tops


class TestKilledWorker:
    def test_sigkilled_worker_loses_at_most_one_chunk(self, tmp_path, monkeypatch):
        # Slow each chunk down so the kill reliably lands mid-job.
        monkeypatch.setenv(CHUNK_DELAY_ENV, "0.3")
        data = tmp_path / "data"
        store, queue, cache = open_stores(data)
        spec = _spec(k=6)
        record = _submit(store, queue, spec)

        pool = WorkerPool(data, workers=1, poll_interval=0.02)
        pool.start()
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                progress = [
                    e
                    for e in store.read_events(record.id)
                    if e["event"] == "progress" and e.get("checkpointed")
                ]
                if len(progress) >= 2:
                    break
                time.sleep(0.05)
            else:
                pytest.fail("worker never checkpointed two chunks")
            # SIGKILL: no drain, no requeue — the crash case.
            pool.processes[0].kill()
        finally:
            pool.stop(graceful=False, timeout=10)

        stranded = store.get(record.id)
        assert stranded.state == JobState.RUNNING  # record still says running
        assert queue.in_flight() == 1  # marker stranded in claimed/
        assert store.checkpoint_path(record.id).exists()

        # Next pool start requeues; an inline executor stands in for it.
        assert recover(store, queue) == [record.id]
        assert store.get(record.id).state == JobState.QUEUED
        assert queue.claim() == record.id
        monkeypatch.setenv(CHUNK_DELAY_ENV, "0")
        assert execute_job(store, cache, store.get(record.id)) == "done"

        events = [e["event"] for e in store.read_events(record.id)]
        assert "requeued" in events and "resumed" in events
        payload = cache.get(record.digest)
        baseline = _baseline_payload(spec, record.digest)
        assert payload["top_alignments"] == baseline["top_alignments"]
        assert payload["repeats"] == baseline["repeats"]

    def test_pool_restart_finishes_interrupted_job(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CHUNK_DELAY_ENV, "0.3")
        data = tmp_path / "data"
        store, queue, cache = open_stores(data)
        spec = _spec(k=5)
        record = _submit(store, queue, spec)

        first = WorkerPool(data, workers=1, poll_interval=0.02)
        first.start()
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if any(
                    e["event"] == "progress" and e.get("checkpointed")
                    for e in store.read_events(record.id)
                ):
                    break
                time.sleep(0.05)
            else:
                pytest.fail("worker never checkpointed")
            first.processes[0].kill()
        finally:
            first.stop(graceful=False, timeout=10)

        monkeypatch.setenv(CHUNK_DELAY_ENV, "0")
        second = WorkerPool(data, workers=1, poll_interval=0.02)
        requeued = second.start()  # start() runs recovery itself
        try:
            assert requeued == [record.id]
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                refreshed = store.get(record.id)
                if refreshed.terminal:
                    break
                time.sleep(0.05)
            assert store.get(record.id).state == JobState.DONE
        finally:
            assert second.stop(graceful=True, timeout=15)

        assert "resumed" in [e["event"] for e in store.read_events(record.id)]
        payload = cache.get(record.digest)
        baseline = _baseline_payload(spec, record.digest)
        assert payload["top_alignments"] == baseline["top_alignments"]
        assert payload["repeats"] == baseline["repeats"]
