"""The HTTP JSON API, driven through the real client over a socket."""

import http.client
import json
import shutil
import threading
from http.server import ThreadingHTTPServer
from pathlib import Path
from urllib.parse import urlparse

import pytest

from repro.sequences import pseudo_titin
from repro.service import (
    ClientBacklogFull,
    JobSpec,
    ServiceClient,
    ServiceError,
    job_digest,
)
from repro.service.server import ReproService, ServiceConfig, _Handler, _ServerState
from repro.service.workers import execute_job, recover


@pytest.fixture()
def service(tmp_path):
    """A live server on an ephemeral port, with no worker pool.

    Jobs are executed inline via :func:`run_one`, which keeps every
    lifecycle transition deterministic for assertions.
    """
    config = ServiceConfig(
        data_dir=str(tmp_path / "data"), port=0, workers=0, queue_capacity=4
    )
    svc = ReproService(config)
    httpd = ThreadingHTTPServer((config.host, 0), _Handler)
    httpd.daemon_threads = True
    httpd.state = _ServerState(service=svc)
    thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
    )
    thread.start()
    client = ServiceClient(f"http://127.0.0.1:{httpd.server_address[1]}", timeout=10)
    try:
        yield svc, client
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(5)


def run_one(svc):
    """Claim and execute the next queued job (an inline stand-in worker)."""
    job_id = svc.queue.claim()
    assert job_id is not None
    outcome = execute_job(svc.store, svc.cache, svc.store.get(job_id))
    svc.queue.discard(job_id)
    return job_id, outcome


def _spec(**overrides):
    payload = {"sequence": pseudo_titin(60, seed=2).text, "top_alignments": 3}
    payload.update(overrides)
    return payload


class TestBasics:
    def test_healthz(self, service):
        _, client = service
        assert client.healthz() == {"ok": True}

    def test_unknown_endpoint_404(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.code == 404

    def test_missing_job_404(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.status("deadbeef00000000")
        assert excinfo.value.code == 404


class TestSubmission:
    def test_submit_queues_job(self, service):
        svc, client = service
        record = client.submit(_spec())
        assert record["state"] == "queued"
        assert not record["from_cache"]
        assert len(record["digest"]) == 64
        assert client.status(record["id"])["state"] == "queued"
        assert client.stats()["queue"]["depth"] == 1

    def test_malformed_spec_400(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"sequence": "ACGT" * 5, "alphabet": "klingon"})
        assert excinfo.value.code == 400
        with pytest.raises(ServiceError) as excinfo:
            client.submit({"top_alignments": 3})
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("engine", ["bogus", "gotoh"])
    def test_engine_outside_the_table_400(self, service, engine):
        """Rejected at admission, not in a worker: ``gotoh`` is not
        Equation 1 and ``engine`` is outside the digest, so running it
        would cache a wrong answer under the right key."""
        svc, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.submit(_spec(engine=engine))
        assert excinfo.value.code == 400
        assert "engine" in str(excinfo.value)
        assert client.stats()["queue"]["depth"] == 0

    def test_backpressure_429_with_retry_after(self, service):
        svc, client = service
        for seed in range(4):
            client.submit(_spec(sequence=pseudo_titin(60, seed=seed + 10).text))
        with pytest.raises(ClientBacklogFull) as excinfo:
            client.submit(_spec(sequence=pseudo_titin(60, seed=99).text))
        assert excinfo.value.retry_after >= 1
        # The rejected job left no orphan record behind.
        assert svc.store.states()["queued"] == 4

    def test_events_stream(self, service):
        svc, client = service
        record = client.submit(_spec())
        run_one(svc)
        events = list(client.events(record["id"]))
        names = [e["event"] for e in events]
        assert names[0] == "queued"
        assert "progress" in names
        assert names[-1] == "done"
        since = len(events) - 1
        assert [e["event"] for e in client.events(record["id"], since=since)] == ["done"]


class TestResultsAndCache:
    def test_result_by_digest_and_job_id(self, service):
        svc, client = service
        record = client.submit(_spec())
        run_one(svc)
        by_digest = client.result(record["digest"])
        by_job = client.result(record["id"])
        assert by_digest == by_job
        assert len(by_digest["top_alignments"]) == 3
        assert client.status(record["id"])["state"] == "done"

    def test_result_by_digest_prefix(self, service):
        """The truncated digest shown by ``repro submit`` is fetchable."""
        svc, client = service
        record = client.submit(_spec())
        run_one(svc)
        assert client.result(record["digest"][:16]) == client.result(record["digest"])

    def test_result_404_before_completion(self, service):
        _, client = service
        record = client.submit(_spec())
        with pytest.raises(ServiceError) as excinfo:
            client.result(record["digest"])
        assert excinfo.value.code == 404

    def test_duplicate_submission_is_born_done(self, service):
        svc, client = service
        first = client.submit(_spec())
        run_one(svc)
        duplicate = client.submit(_spec())
        assert duplicate["from_cache"]
        assert duplicate["state"] == "done"
        assert duplicate["served_from_cache"]
        assert duplicate["digest"] == first["digest"]
        assert duplicate["id"] != first["id"]
        # Born-done jobs never touch the queue.
        assert client.stats()["queue"]["depth"] == 0
        assert client.result(duplicate["id"]) == client.result(first["id"])

    def test_a_born_done_job_records_the_tops_the_search_found(self, service):
        """A search that finds fewer tops than asked for: the duplicate
        born done from the cache records what the result holds, not k."""
        svc, client = service
        spec = {"sequence": "MKTAYIAKQRQISFVKSHFSRQ", "top_alignments": 5, "min_score": 30}
        first = client.submit(spec)
        run_one(svc)
        duplicate = client.submit(spec)
        assert duplicate["from_cache"]
        tops = len(client.result(first["digest"])["top_alignments"])
        assert tops < 5
        assert client.status(first["id"])["found"] == duplicate["found"] == tops

    def test_a_fetch_by_job_id_reads_no_cache_entry_named_by_it(
        self, service, monkeypatch
    ):
        svc, client = service
        record = client.submit(_spec())
        run_one(svc)
        asked = []
        for name in ("get", "resolve"):
            real = getattr(svc.cache, name)
            monkeypatch.setattr(
                svc.cache, name, lambda ref, real=real: asked.append(ref) or real(ref)
            )
        assert svc.result(record["id"]) == svc.result(record["digest"]) is not None
        assert record["id"] not in asked and record["digest"] in asked

    def test_a_fetch_by_digest_reads_no_job_record(self, service, monkeypatch):
        svc, client = service
        record = client.submit(_spec())
        run_one(svc)
        asked = []
        real = svc.store.get
        monkeypatch.setattr(
            svc.store, "get", lambda ref: asked.append(ref) or real(ref)
        )
        assert svc.result(record["digest"]) is not None
        assert asked == []

    def test_execution_knobs_share_one_cache_entry(self, service):
        svc, client = service
        client.submit(_spec())
        run_one(svc)
        grouped = client.submit(_spec(engine="lanes", group=8, priority=3))
        assert grouped["from_cache"]


class TestCancel:
    def test_cancel_queued_job_is_immediate(self, service):
        svc, client = service
        record = client.submit(_spec())
        cancelled = client.cancel(record["id"])
        assert cancelled["state"] == "cancelled"
        assert client.stats()["queue"]["depth"] == 0

    def test_cancel_terminal_job_is_noop(self, service):
        svc, client = service
        record = client.submit(_spec())
        client.cancel(record["id"])
        again = client.cancel(record["id"])
        assert again["state"] == "cancelled"

    def test_cancel_missing_job_404(self, service):
        _, client = service
        with pytest.raises(ServiceError) as excinfo:
            client.cancel("deadbeef00000000")
        assert excinfo.value.code == 404


class TestFollowStreaming:
    def test_follow_tails_until_terminal(self, service):
        svc, client = service
        record = client.submit(_spec())

        def finish_later():
            import time

            time.sleep(0.3)
            run_one(svc)

        worker = threading.Thread(target=finish_later, daemon=True)
        worker.start()
        events = list(client.events(record["id"], follow=True))
        worker.join(10)
        names = [e["event"] for e in events]
        assert names[0] == "queued"
        assert names[-1] == "done"


class TestStats:
    def test_stats_shape(self, service):
        svc, client = service
        client.submit(_spec())
        run_one(svc)
        stats = client.stats()
        assert stats["jobs"]["done"] == 1
        assert stats["cache"]["disk_entries"] == 1
        assert stats["queue"]["capacity"] == 4
        assert "workers" in stats and "uptime" in stats


def _raw(client, method, path, body=b"", headers=None):
    """One request with a hand-made body and headers: ``(status, JSON)``."""
    url = urlparse(client.base_url)
    conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
    try:
        conn.putrequest(method, path)
        for name, value in {"Content-Length": str(len(body)), **(headers or {})}.items():
            conn.putheader(name, value)
        conn.endheaders(body)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestMalformedRequests:
    """Every malformed request gets an answer; nothing reaches a worker."""

    def _post(self, client, text):
        return _raw(client, "POST", "/jobs", text.encode())

    def _assert_nothing_queued(self, svc):
        assert svc.queue.claim() is None

    def test_wrong_types_are_400(self, service):
        svc, client = service
        for field, value in (("min_score", "null"), ("priority", '"hi"')):
            body = f'{{"sequence": "ACDEFG", "{field}": {value}}}'
            status, answer = self._post(client, body)
            assert status == 400 and field in answer["error"]
        self._assert_nothing_queued(svc)

    def test_a_non_numeric_content_length_is_400(self, service):
        _, client = service
        status, answer = _raw(
            client, "POST", "/jobs", b"{}", headers={"Content-Length": "lots"}
        )
        assert status == 400 and "Content-Length" in answer["error"]

    def test_values_a_worker_would_fail_on_are_400(self, service):
        svc, client = service
        for field, value in (("group", "2.5"), ("gap_extend", "Infinity")):
            status, answer = self._post(
                client, f'{{"sequence": "ACDEFG", "{field}": {value}}}'
            )
            assert status == 400 and field in answer["error"]
        self._assert_nothing_queued(svc)

    def test_nan_is_400_and_nothing_is_cached(self, service):
        svc, client = service
        status, answer = self._post(client, '{"sequence": "ACDEFG", "gap_open": NaN}')
        assert status == 400 and "gap_open" in answer["error"]
        self._assert_nothing_queued(svc)

    def test_any_other_failure_is_a_json_500(self, service, monkeypatch):
        svc, client = service

        def boom(*args, **kwargs):
            raise RuntimeError("bug")

        monkeypatch.setattr(svc, "admit", boom)
        monkeypatch.setattr(svc, "stats", boom)
        assert self._post(client, '{"sequence": "ACDEFG"}') == (
            500,
            {"error": "internal error: RuntimeError"},
        )
        assert _raw(client, "GET", "/stats") == (
            500,
            {"error": "internal error: RuntimeError"},
        )
        assert client.healthz() == {"ok": True}


class TestRestart:
    def test_cluster_routed_running_job_requeues_on_restart(self, tmp_path):
        # What an older server left in its data dir when it died while
        # its coordinator ran a job: the record is ``running`` on the
        # cluster, and no spool marker holds it.
        config = ServiceConfig(data_dir=str(tmp_path / "data"), port=0, workers=0)
        before = ReproService(config)
        spec = JobSpec.from_dict(_spec())
        job_id = before.store.new_job(spec.to_dict(), job_digest(spec)).id
        before.store.append_event(job_id, "queued", route="cluster")
        before.store.update(job_id, state="running", worker="cluster", attempts=1)
        before.store.append_event(job_id, "claimed", worker="cluster")
        assert job_id not in before.queue.tags()

        # The restart sequence of serve(): claimed markers, then the
        # records that have no marker.
        after = ReproService(config)
        assert recover(after.store, after.queue) == []
        assert after.gateway.recover() == 1
        record = after.store.get(job_id)
        assert (record.state, record.worker) == ("queued", "")
        requeued = [
            e for e in after.store.read_events(job_id) if e["event"] == "requeued"
        ]
        assert [e["reason"] for e in requeued] == ["server restarted"]
        assert run_one(after) == (job_id, "done")
        assert after.store.get(job_id).state == "done"

    def test_a_data_directory_written_before_the_durable_module_is_served(
        self, tmp_path
    ):
        # ``olddata`` was written by the service before its stores shared
        # repro.durable: job "500f…" done with its result cached under an
        # idempotency key, job "38dd…" suspended after one chunk with its
        # checkpoint and marker, and one worker's counters.
        data = tmp_path / "data"
        shutil.copytree(Path(__file__).parent / "olddata", data)
        config = ServiceConfig(data_dir=str(data), port=0, workers=0)
        svc = ReproService(config)
        assert recover(svc.store, svc.queue) == []
        assert svc.gateway.recover() == 0
        assert svc.store.worker_stats()["worker-0"]["jobs_suspended"] == 1
        spec = {"sequence": pseudo_titin(40, seed=5).text, "top_alignments": 3}
        replay = svc.admit(spec, idempotency_key="first")
        assert replay.replayed and replay.record.id == "500fbff8f0bf4e3e"
        suspended = "38dd237ac98c4e56"
        assert run_one(svc) == (suspended, "done")
        assert "resumed" in [e["event"] for e in svc.store.read_events(suspended)]

        fresh = ReproService(
            ServiceConfig(data_dir=str(tmp_path / "fresh"), workers=0)
        )
        for job_id, seed in (("500fbff8f0bf4e3e", 5), (suspended, 6)):
            record = fresh.submit({**spec, "sequence": pseudo_titin(40, seed=seed).text})[0]
            run_one(fresh)
            served, expected = svc.result(job_id), fresh.result(record.id)
            assert served["top_alignments"] == expected["top_alignments"]
            assert served["repeats"] == expected["repeats"]
