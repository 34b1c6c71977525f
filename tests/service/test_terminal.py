"""Every way a job ends leaves only its record and its event log behind.

Eight call sites used to write the terminal transition by hand and
cleared different subsets of ``checkpoints/<id>.npz`` and ``cancel/<id>``;
they all go through ``JobStore.finish`` now, and these tests drive each
of them with both files planted.
"""

import pytest

import repro.service.workers as workers_mod
from repro.sequences import pseudo_titin
from repro.service import JobSpec, JobState, job_digest
from repro.service.server import ReproService, ServiceConfig
from repro.service.workers import execute_job, open_stores


@pytest.fixture()
def stores(tmp_path):
    return open_stores(tmp_path / "data")


def _spec():
    return JobSpec(sequence=pseudo_titin(60, seed=2).text, top_alignments=4)


def _job(store, queue, spec_dict, digest, *, checkpoint=True, cancel=False):
    """A queued job with a (stale, unreadable) checkpoint and, optionally,
    a cancel marker already on disk."""
    record = store.new_job(spec_dict, digest)
    queue.submit(record.id, 0)
    if checkpoint:
        store.checkpoint_path(record.id).write_bytes(b"left by an earlier attempt")
    if cancel:
        store.request_cancel(record.id)
    return record


def _assert_clean(store, job_id, state):
    record = store.get(job_id)
    assert record.state == state and record.terminal and record.finished > 0
    assert not store.checkpoint_path(job_id).exists()
    assert not store.cancel_requested(job_id)
    assert store.read_events(job_id)[-1]["event"] in (state, "cache-hit")


def test_invalid_spec(stores):
    store, queue, cache = stores
    record = _job(store, queue, {"nonsense": True}, "ab" + "0" * 62, cancel=True)
    assert execute_job(store, cache, record) == "failed"
    _assert_clean(store, record.id, JobState.FAILED)


def test_cache_hit(stores):
    store, queue, cache = stores
    spec = _spec()
    cache.put(job_digest(spec), {"digest": job_digest(spec)})
    record = _job(store, queue, spec.to_dict(), job_digest(spec), cancel=True)
    assert execute_job(store, cache, record) == "done"
    _assert_clean(store, record.id, JobState.DONE)


def test_cancelled_before_it_ran(stores):
    store, queue, cache = stores
    spec = _spec()
    record = _job(store, queue, spec.to_dict(), job_digest(spec), cancel=True)
    assert execute_job(store, cache, record) == "cancelled"
    _assert_clean(store, record.id, JobState.CANCELLED)


def test_cancelled_between_chunks(stores):
    store, queue, cache = stores
    spec = _spec()
    record = _job(store, queue, spec.to_dict(), job_digest(spec))
    calls = []

    def cancel_after_one_chunk():
        calls.append(1)
        if len(calls) == 2:
            store.request_cancel(record.id)
        return False

    outcome = execute_job(store, cache, record, should_stop=cancel_after_one_chunk)
    assert outcome == "cancelled"
    _assert_clean(store, record.id, JobState.CANCELLED)


def test_done(stores):
    store, queue, cache = stores
    spec = _spec()
    record = _job(store, queue, spec.to_dict(), job_digest(spec))
    assert execute_job(store, cache, record) == "done"
    _assert_clean(store, record.id, JobState.DONE)
    assert cache.get(record.digest) is not None


def test_raises_after_a_cancel_request(stores, monkeypatch):
    store, queue, cache = stores
    spec = _spec()
    record = _job(store, queue, spec.to_dict(), job_digest(spec))

    def cancel_then_explode(_spec):
        store.request_cancel(record.id)
        raise RuntimeError("engine exploded")

    monkeypatch.setattr(workers_mod, "finder_for", cancel_then_explode)
    assert execute_job(store, cache, record) == "failed"
    _assert_clean(store, record.id, JobState.FAILED)
    assert "engine exploded" in store.get(record.id).error


@pytest.fixture()
def service(tmp_path):
    return ReproService(ServiceConfig(data_dir=str(tmp_path / "data"), workers=0))


def test_service_cancel_of_a_queued_job_that_was_suspended(service):
    record, _ = service.submit(_spec().to_dict())
    # A drained worker left its checkpoint and requeued the job.
    service.store.checkpoint_path(record.id).write_bytes(b"suspended here")
    cancelled = service.cancel(record.id)
    assert cancelled.state == JobState.CANCELLED
    _assert_clean(service.store, record.id, JobState.CANCELLED)

