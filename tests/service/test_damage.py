"""A damaged file in the data directory costs at most its own job.

A torn or foreign job record reads as missing in every caller of
``JobStore.get``: restart, ``/metrics``, ``GET /jobs/<id>`` and the
worker that claims it.  A stray file in the spool is not a marker.  The
rest are what the fault sweep (``tests/test_durable.py``) found: a done
job whose result is gone is computed again, a record whose spec no
longer hashes to its digest fails instead of caching a wrong result, and
a store that cannot be written leaves the worker running and the claim
for ``recover``.
"""

import errno
import multiprocessing
import signal
from pathlib import Path

import pytest

from repro import durable
from repro.service import JobState
from repro.service.metrics import render_service_metrics
from repro.service.server import ReproService, ServiceConfig
from repro.service.workers import recover, worker_main

from .test_server import _raw, _spec, run_one, service  # noqa: F401 - fixture

#: Ways a job record can be damaged that ``JobStore.get`` once raised on.
DAMAGE = {
    "truncated": lambda data: data[: len(data) // 2],
    "an empty object": lambda data: b"{}",
    "a list": lambda data: b"[]",
}


def _service(tmp_path) -> ReproService:
    return ReproService(ServiceConfig(data_dir=str(tmp_path / "data"), workers=0))


def _damage(svc, job_id, how) -> None:
    path = svc.store.jobs_dir / f"{job_id}.json"
    path.write_bytes(DAMAGE[how](path.read_bytes()))


def _work(svc) -> int:
    """``worker_main`` on this thread until the spool is empty."""
    wake, woken = multiprocessing.Pipe(duplex=False)
    reports, report = multiprocessing.Pipe(duplex=False)
    woken.close()  # the server has gone: the worker stops at its first park
    handlers = signal.getsignal(signal.SIGTERM), signal.getsignal(signal.SIGINT)
    try:
        return worker_main(svc.config.data_dir, wake=wake, report=report)
    finally:
        signal.signal(signal.SIGTERM, handlers[0])
        signal.signal(signal.SIGINT, handlers[1])
        for conn in (wake, reports, report):
            conn.close()


@pytest.fixture(params=sorted(DAMAGE))
def damaged(request, tmp_path):
    """A service with two spooled jobs, the second one's record damaged."""
    svc = _service(tmp_path)
    good = svc.submit(_spec(sequence=_spec()["sequence"][:40]))[0]
    bad = svc.submit(_spec())[0]
    _damage(svc, bad.id, request.param)
    return svc, good, bad


class TestADamagedJobRecord:
    def test_reads_as_missing(self, damaged):
        svc, _good, bad = damaged
        assert svc.store.get(bad.id) is None
        assert svc.status(bad.id) is None

    def test_a_restart_recovers_the_other_jobs(self, damaged):
        svc, good, bad = damaged
        restarted = _service(svc.store.root.parent)
        recover(restarted.store, restarted.queue)
        restarted.gateway.recover()
        assert restarted.store.get(good.id).state == JobState.QUEUED
        assert restarted.store.get(bad.id) is None

    def test_metrics_count_the_other_jobs(self, damaged):
        svc, _good, _bad = damaged
        text = render_service_metrics(svc)
        assert 'repro_service_jobs{state="queued"} 1' in text

    def test_a_worker_runs_the_other_jobs_and_drops_its_marker(self, damaged):
        svc, good, _bad = damaged
        assert _work(svc) == 0
        assert svc.store.get(good.id).state == JobState.DONE
        assert svc.queue.depth() == svc.queue.in_flight() == 0

    @pytest.mark.parametrize("how", sorted(DAMAGE))
    def test_get_job_is_404(self, service, how):
        svc, client = service
        job_id = client.submit(_spec())["id"]
        _damage(svc, job_id, how)
        assert _raw(client, "GET", f"/jobs/{job_id}")[0] == 404


class TestAStraySpoolFile:
    @pytest.fixture()
    def svc(self, tmp_path):
        svc = _service(tmp_path)
        (svc.queue.queued_dir / "stray.txt").touch()
        return svc

    def test_admission_still_spools(self, svc):
        record = svc.submit(_spec())[0]
        assert svc.queue.tags()[record.id] == (0, 0)

    def test_a_restart_still_recovers(self, svc):
        record = svc.submit(_spec())[0]
        assert _service(svc.store.root.parent).gateway.recover() == 0
        assert record.id in svc.queue.tags()

    def test_claim_passes_it_by(self, svc):
        record = svc.submit(_spec())[0]
        assert svc.queue.claim() == record.id
        assert svc.queue.claim() is None
        assert (svc.queue.queued_dir / "stray.txt").exists()


class TestWhatTheFaultSweepFound:
    def test_a_done_job_whose_result_is_gone_is_computed_again(self, tmp_path):
        svc = _service(tmp_path)
        record = svc.submit(_spec())[0]
        run_one(svc)
        before = svc.result(record.id)
        svc.cache.path_for(record.digest).write_bytes(b'{"torn')

        restarted = _service(tmp_path)
        assert restarted.result(record.id) is None
        assert restarted.store.get(record.id).state == JobState.QUEUED
        assert restarted.store.read_events(record.id)[-1]["reason"] == "result lost"
        assert run_one(restarted) == (record.id, "done")
        after = restarted.result(record.id)
        assert after["top_alignments"] == before["top_alignments"]

    def test_a_spec_that_no_longer_hashes_to_its_digest_fails(self, tmp_path):
        svc = _service(tmp_path)
        record = svc.submit(_spec())[0]
        path = svc.store.jobs_dir / f"{record.id}.json"
        sequence = record.spec["sequence"]
        path.write_text(path.read_text().replace(sequence, sequence[::-1]))
        assert run_one(svc) == (record.id, "failed")
        assert "digest" in svc.store.get(record.id).error
        assert svc.cache.get(record.digest) is None

    def test_a_store_error_keeps_the_worker_and_leaves_the_claim(
        self, tmp_path, monkeypatch
    ):
        svc = _service(tmp_path)
        record = svc.submit(_spec())[0]
        write = durable.atomic_write

        def full_for_records(path, data):
            if Path(path).parent == svc.store.jobs_dir:
                raise OSError(errno.ENOSPC, "No space left on device", str(path))
            write(path, data)

        monkeypatch.setattr(durable, "atomic_write", full_for_records)
        assert _work(svc) == 0
        assert svc.queue.in_flight() == 1
        monkeypatch.undo()
        assert recover(svc.store, svc.queue) == [record.id]
