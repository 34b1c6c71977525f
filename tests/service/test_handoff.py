"""The service hand-off: a spooled job reaches an idle worker, and a
finished job its waiter, as soon as it exists — no side sleeps on a clock.

An idle worker parks on its wake pipe, which the server writes after
every marker it spools; ``GET /jobs/<id>?wait=`` parks on the condition
the workers' reports bump.  The unsignalled rescan runs every
``poll_interval``, set far above :data:`HANDOFF_S` wherever a test
bounds a signalled hand-off, so only the signal can meet the bound.
Every check synchronises on what the service reports (job records,
parks on its condition) rather than on elapsed time.
"""

import contextlib
import json
import os
import queue
import sys
import threading
import time
from http.server import ThreadingHTTPServer

import pytest

from repro.sequences import pseudo_titin
from repro.service import JobSpec, ServiceClient, ServiceError, SpoolQueue, job_digest
from repro.service import server as server_module
from repro.service.server import ReproService, ServiceConfig, _Handler, _ServerState
from repro.service.workers import CHUNK_DELAY_ENV, recover

from .test_server import run_one, service  # noqa: F401 - the workers=0 fixture
from .test_tenancy import TENANTS, client_for

#: Longest a hand-off may take: a pipe write, a claim, a thread switch.
HANDOFF_S = 0.05

#: Every wait in this module gives up after this long.
PATIENCE_S = 30.0

#: The unsignalled rescan: far outside every signalled bound.
SLOW_SCAN_S = 2.0


def _spec(seed=2, k=3):
    return {"sequence": pseudo_titin(60, seed=seed).text, "top_alignments": k}


@contextlib.contextmanager
def _pooled(tmp_path, *, workers=1, poll_interval=SLOW_SCAN_S, **overrides):
    """A service with a started worker pool, stopped on exit."""
    config = ServiceConfig(
        data_dir=str(tmp_path / "data"),
        port=0,
        workers=workers,
        poll_interval=poll_interval,
        **overrides,
    )
    svc = ReproService(config)
    svc.start_pool()
    try:
        yield svc
    finally:
        svc.changes.close()
        svc.pool.stop(graceful=False, timeout=10)


@contextlib.contextmanager
def _http(svc):
    """``svc`` behind a live HTTP server on an ephemeral port."""
    httpd = ThreadingHTTPServer((svc.config.host, 0), _Handler)
    httpd.daemon_threads = True
    httpd.state = _ServerState(service=svc)
    thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
    )
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_address[1]}"
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(5)


def _parks(svc):
    """A queue that receives one item each time a waiter parks on ``svc``."""
    parks = queue.SimpleQueue()
    wait = svc.changes.wait

    def park(seen, timeout):
        parks.put(time.monotonic())
        return wait(seen, timeout)

    svc.changes.wait = park
    return parks


def _finish(svc, record_id):
    record = svc.status(record_id, wait=PATIENCE_S)
    assert record.state == "done", record
    return record


@pytest.fixture()
def slow_worker(monkeypatch):
    """Workers that take seconds per chunk: the first job submitted
    holds the one worker, and the next stays queued for the test."""
    monkeypatch.setenv(CHUNK_DELAY_ENV, "5.0")


class TestClaim:
    def test_job_spooled_while_the_worker_is_parked_is_claimed_within_the_bound(
        self, tmp_path
    ):
        with _pooled(tmp_path) as svc:
            _finish(svc, svc.submit(_spec(seed=1))[0].id)  # the worker is up and idle
            for seed in (2, 3, 4):
                submitted = time.time()
                record, _ = svc.submit(_spec(seed=seed))
                assert _finish(svc, record.id).started - submitted < HANDOFF_S

    def test_unsignalled_marker_is_claimed_within_the_poll_interval(self, tmp_path):
        poll = 0.2
        with _pooled(tmp_path, poll_interval=poll) as svc:
            _finish(svc, svc.submit(_spec(seed=1))[0].id)
            # A marker the server never signals: stranded in claimed/
            # as if its worker had died, then requeued by recover().
            spec = JobSpec.from_dict(_spec(seed=2))
            record = svc.store.new_job(spec.to_dict(), job_digest(spec))
            key = SpoolQueue(tmp_path / "elsewhere").submit(record.id)
            os.rename(tmp_path / "elsewhere" / "queue" / key, svc.queue.claimed_dir / key)
            requeued = time.time()
            assert recover(svc.store, svc.queue) == [record.id]
            assert _finish(svc, record.id).started - requeued < poll + HANDOFF_S


class TestParkedWait:
    def test_returns_when_the_job_finishes(self, tmp_path):
        with _pooled(tmp_path) as svc, _http(svc) as url:
            record = ServiceClient(url, timeout=10).submit(_spec())
            done = ServiceClient(url, timeout=10).wait(record["id"], timeout=PATIENCE_S)
            returned = time.time()
            assert done["state"] == "done"
            assert returned - done["finished"] < HANDOFF_S

    def test_returns_on_a_server_side_cancel_of_a_queued_job(
        self, tmp_path, slow_worker
    ):
        with _pooled(tmp_path) as svc, _http(svc) as url:
            client = ServiceClient(url, timeout=10)
            client.submit(_spec(seed=1))  # holds the one worker for seconds
            queued = client.submit(_spec(seed=2))
            parks = _parks(svc)
            answers = queue.SimpleQueue()
            waiter = threading.Thread(
                target=lambda: answers.put(
                    (client.wait(queued["id"], timeout=PATIENCE_S), time.monotonic())
                ),
                daemon=True,
            )
            waiter.start()
            parks.get(timeout=PATIENCE_S)
            cancelled = time.monotonic()
            assert client.cancel(queued["id"])["state"] == "cancelled"
            record, returned = answers.get(timeout=PATIENCE_S)
            assert record["state"] == "cancelled"
            assert returned - cancelled < HANDOFF_S
            waiter.join(PATIENCE_S)
            assert not waiter.is_alive()

    def test_returns_the_live_record_at_its_cap(
        self, tmp_path, slow_worker, monkeypatch
    ):
        cap = 0.2
        monkeypatch.setattr(server_module, "MAX_WAIT_S", cap)
        with _pooled(tmp_path) as svc, _http(svc) as url:
            client = ServiceClient(url, timeout=10)
            client.submit(_spec(seed=1))
            queued = client.submit(_spec(seed=2))
            started = time.monotonic()
            record = client._request("GET", f"/jobs/{queued['id']}?wait={PATIENCE_S}")
            assert record["state"] == "queued"
            assert cap <= time.monotonic() - started < cap + HANDOFF_S

    def test_returns_at_once_when_the_server_shuts_down(self, tmp_path, slow_worker):
        # What serve()'s SIGTERM handler does first: close the changes.
        with _pooled(tmp_path) as svc, _http(svc) as url:
            client = ServiceClient(url, timeout=10)
            running = client.submit(_spec(seed=1))
            parks = _parks(svc)
            answers = queue.SimpleQueue()
            waiter = threading.Thread(
                target=lambda: answers.put(
                    (
                        client._request("GET", f"/jobs/{running['id']}?wait=20"),
                        time.monotonic(),
                    )
                ),
                daemon=True,
            )
            waiter.start()
            parks.get(timeout=PATIENCE_S)
            closed = time.monotonic()
            svc.changes.close()
            record, returned = answers.get(timeout=PATIENCE_S)
            assert record["state"] in ("queued", "running")
            assert returned - closed < HANDOFF_S
            # Once closed, a new wait does not park at all.
            started = time.monotonic()
            client._request("GET", f"/jobs/{running['id']}?wait=20")
            assert time.monotonic() - started < HANDOFF_S

    def test_foreign_tenant_gets_404_without_parking(self, tmp_path, slow_worker):
        tenants_file = tmp_path / "tenants.json"
        tenants_file.write_text(json.dumps(TENANTS), encoding="utf-8")
        with _pooled(tmp_path, tenants_file=str(tenants_file)) as svc, _http(svc) as url:
            record = client_for(url, "heavy-key").submit(_spec())
            parks = _parks(svc)
            foreign = client_for(url, "light-key")
            started = time.monotonic()
            with pytest.raises(ServiceError) as excinfo:
                foreign._request("GET", f"/jobs/{record['id']}?wait=20")
            assert excinfo.value.code == 404
            assert time.monotonic() - started < HANDOFF_S
            assert parks.empty()

    def test_malformed_wait_is_400(self, tmp_path):
        with _pooled(tmp_path) as svc, _http(svc) as url:
            client = ServiceClient(url, timeout=10)
            record = client.submit(_spec())
            for wait in ("soon", "-1", "nan"):
                with pytest.raises(ServiceError) as excinfo:
                    client._request("GET", f"/jobs/{record['id']}?wait={wait}")
                assert excinfo.value.code == 400

    def test_followed_events_end_right_after_the_job(self, tmp_path):
        with _pooled(tmp_path) as svc, _http(svc) as url:
            client = ServiceClient(url, timeout=10)
            record = client.submit(_spec())
            events = list(client.events(record["id"], follow=True))
            returned = time.time()
            assert [e["event"] for e in events][-1] == "done"
            assert returned - svc.store.get(record["id"]).finished < HANDOFF_S


class TestClientWait:
    def test_falls_back_to_poll_against_a_server_without_a_pool(self, service):  # noqa: F811
        svc, client = service
        record = client.submit(_spec())
        sleeps = []

        def sleep(seconds):
            sleeps.append(seconds)
            run_one(svc)  # the job finishes while the client sleeps

        client._sleep = sleep
        done = client.wait(record["id"], timeout=PATIENCE_S, poll=0.125)
        assert done["state"] == "done"
        assert sleeps == [0.125]

    def test_times_out_at_its_deadline(self, service):  # noqa: F811
        _, client = service
        record = client.submit(_spec())
        client._sleep = lambda seconds: None
        with pytest.raises(TimeoutError):
            client.wait(record["id"], timeout=0.05, poll=0.01)


class TestKilledWorkers:
    def test_sigkilled_workers_never_wedge_submit_or_wait(self, tmp_path, monkeypatch):
        """Each round SIGKILLs a worker as soon as a job has finished,
        while the others run, with more workers than cores and a tiny
        switch interval: submits still answer, every wait returns by
        its deadline, and the next pool's recovery finishes what the
        dead worker held."""
        monkeypatch.setenv(CHUNK_DELAY_ENV, "0.05")  # a job spans the kill
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        submitted = []
        try:
            for round_ in range(3):
                with _pooled(tmp_path, workers=3, poll_interval=0.2) as svc:
                    ids = [
                        svc.submit(_spec(seed=10 * round_ + i, k=4))[0].id
                        for i in range(5)
                    ]
                    _finish(svc, ids[0])
                    svc.pool.processes[round_].kill()
                    ids.append(svc.submit(_spec(seed=10 * round_ + 9))[0].id)
                    submitted += ids
                    for job_id in ids[1:]:
                        started = time.monotonic()
                        record = svc.status(job_id, wait=2.0)
                        assert time.monotonic() - started < 2.0 + HANDOFF_S
                        assert record.state in ("queued", "running", "done")
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setenv(CHUNK_DELAY_ENV, "0")
        with _pooled(tmp_path, workers=2, poll_interval=0.2) as svc:
            for job_id in submitted:
                _finish(svc, job_id)
