"""Multi-tenant gateway behavior over a live socket.

Covers the admission contract end to end: API-key auth (401/403),
quota shedding (429 + Retry-After), tenant-scoped reads, idempotent
replay — including concurrent duplicate POSTs — and fair-share
dispatch overtaking a saturating tenant's backlog.
"""

import json
import threading
import urllib.request
from http.server import ThreadingHTTPServer

import pytest

from repro.sequences import pseudo_titin
from repro.service import (
    ClientBacklogFull,
    ServiceAuthError,
    ServiceClient,
    ServiceError,
)
from repro.service.server import ReproService, ServiceConfig, _Handler, _ServerState
from repro.service.workers import execute_job

TENANTS = {
    "tenants": {
        # Saturating bulk tenant: low weight, no quotas.
        "heavy": {"api_key": "heavy-key", "weight": 1},
        # Interactive tenant: high fair-share weight.
        "light": {"api_key": "light-key", "weight": 4},
        # One request per ~100 s: the second POST always sheds.
        "capped": {"api_key": "capped-key", "rate": 0.01},
        # One admitted-but-not-terminal job at a time.
        "boxed": {"api_key": "boxed-key", "max_in_flight": 1},
        "locked": {"api_key": "locked-key", "enabled": False},
    }
}


@pytest.fixture()
def service(tmp_path):
    """A tenant-mode server on an ephemeral port, no worker pool."""
    tenants_file = tmp_path / "tenants.json"
    tenants_file.write_text(json.dumps(TENANTS), encoding="utf-8")
    config = ServiceConfig(
        data_dir=str(tmp_path / "data"),
        port=0,
        workers=0,
        queue_capacity=16,
        tenants_file=str(tenants_file),
    )
    svc = ReproService(config)
    httpd = ThreadingHTTPServer((config.host, 0), _Handler)
    httpd.daemon_threads = True
    httpd.state = _ServerState(service=svc)
    thread = threading.Thread(
        target=httpd.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
    )
    thread.start()
    base_url = f"http://127.0.0.1:{httpd.server_address[1]}"
    try:
        yield svc, base_url
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(5)


def client_for(base_url, key, **kwargs):
    kwargs.setdefault("submit_attempts", 1)  # surface 429s, don't retry
    return ServiceClient(base_url, timeout=10, api_key=key, **kwargs)


def run_one(svc):
    """Execute the next spooled job inline (a stand-in worker)."""
    job_id = svc.queue.claim()
    assert job_id is not None
    execute_job(svc.store, svc.cache, svc.store.get(job_id))
    svc.queue.discard(job_id)
    return job_id


def _spec(seed=2, **overrides):
    payload = {"sequence": pseudo_titin(60, seed=seed).text, "top_alignments": 3}
    payload.update(overrides)
    return payload


class TestAuth:
    def test_missing_key_is_401(self, service):
        _, base_url = service
        with pytest.raises(ServiceAuthError) as excinfo:
            client_for(base_url, None).submit(_spec())
        assert excinfo.value.code == 401

    def test_unknown_key_is_401(self, service):
        _, base_url = service
        with pytest.raises(ServiceAuthError) as excinfo:
            client_for(base_url, "nope").submit(_spec())
        assert excinfo.value.code == 401

    def test_disabled_tenant_is_403(self, service):
        _, base_url = service
        with pytest.raises(ServiceAuthError) as excinfo:
            client_for(base_url, "locked-key").submit(_spec())
        assert excinfo.value.code == 403

    def test_reads_need_a_key_too(self, service):
        _, base_url = service
        anonymous = client_for(base_url, None)
        with pytest.raises(ServiceAuthError):
            anonymous.status("deadbeef00000000")
        with pytest.raises(ServiceAuthError):
            anonymous.result("deadbeef00000000")

    def test_operator_endpoints_stay_open(self, service):
        _, base_url = service
        anonymous = client_for(base_url, None)
        assert anonymous.healthz() == {"ok": True}
        assert "gateway" in anonymous.stats()
        with urllib.request.urlopen(f"{base_url}/metrics", timeout=10) as resp:
            assert resp.status == 200

    def test_x_api_key_header_works(self, service):
        _, base_url = service
        request = urllib.request.Request(
            f"{base_url}/jobs/deadbeef00000000",
            headers={"X-Api-Key": "heavy-key"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 404  # authenticated; job just missing


class TestQuotas:
    def test_rate_quota_sheds_with_retry_after(self, service):
        _, base_url = service
        capped = client_for(base_url, "capped-key")
        capped.submit(_spec(seed=11))
        with pytest.raises(ClientBacklogFull) as excinfo:
            capped.submit(_spec(seed=12))
        assert excinfo.value.retry_after >= 1

    def test_in_flight_quota_frees_on_completion(self, service):
        svc, base_url = service
        boxed = client_for(base_url, "boxed-key")
        boxed.submit(_spec(seed=21))
        with pytest.raises(ClientBacklogFull):
            boxed.submit(_spec(seed=22))
        run_one(svc)  # first job reaches a terminal state
        record = boxed.submit(_spec(seed=22))
        assert record["state"] == "queued"

    def test_rejections_show_up_in_metrics(self, service):
        _, base_url = service
        capped = client_for(base_url, "capped-key")
        capped.submit(_spec(seed=31))
        with pytest.raises(ClientBacklogFull):
            capped.submit(_spec(seed=32))
        with urllib.request.urlopen(f"{base_url}/metrics", timeout=10) as resp:
            text = resp.read().decode("utf-8")
        assert 'repro_gateway_rejections_total{reason="rate",tenant="capped"}' in text
        assert 'repro_gateway_admissions_total' in text


class TestScoping:
    def test_foreign_job_and_result_are_404(self, service):
        svc, base_url = service
        heavy = client_for(base_url, "heavy-key")
        light = client_for(base_url, "light-key")
        record = heavy.submit(_spec(seed=41))
        run_one(svc)
        assert heavy.status(record["id"])["state"] == "done"
        assert heavy.result(record["digest"])
        for probe in (record["id"], record["digest"]):
            with pytest.raises(ServiceError) as excinfo:
                light.result(probe)
            assert excinfo.value.code == 404
        with pytest.raises(ServiceError) as excinfo:
            light.status(record["id"])
        assert excinfo.value.code == 404
        with pytest.raises(ServiceError) as excinfo:
            list(light.events(record["id"]))
        assert excinfo.value.code == 404

    def test_foreign_cancel_is_404_and_harmless(self, service):
        svc, base_url = service
        heavy = client_for(base_url, "heavy-key")
        light = client_for(base_url, "light-key")
        record = heavy.submit(_spec(seed=42))
        with pytest.raises(ServiceError) as excinfo:
            light.cancel(record["id"])
        assert excinfo.value.code == 404
        assert heavy.status(record["id"])["state"] == "queued"

    def test_shared_digest_readable_after_own_admission(self, service):
        """A cache hit shared across tenants still requires each tenant
        to have submitted the work before the result is readable."""
        svc, base_url = service
        heavy = client_for(base_url, "heavy-key")
        light = client_for(base_url, "light-key")
        first = heavy.submit(_spec(seed=43))
        run_one(svc)
        with pytest.raises(ServiceError):  # no grant yet
            light.result(first["digest"])
        duplicate = light.submit(_spec(seed=43))
        assert duplicate["from_cache"]
        assert duplicate["digest"] == first["digest"]
        assert light.result(first["digest"]) == heavy.result(first["digest"])


class TestIdempotency:
    def test_replay_returns_original_job(self, service):
        svc, base_url = service
        heavy = client_for(base_url, "heavy-key")
        first = heavy.submit(_spec(seed=51), idempotency_key="batch-7")
        assert not first["replayed"]
        again = heavy.submit(_spec(seed=51), idempotency_key="batch-7")
        assert again["replayed"]
        assert again["id"] == first["id"]
        run_one(svc)
        done = heavy.submit(_spec(seed=51), idempotency_key="batch-7")
        assert done["id"] == first["id"]
        assert done["state"] == "done"

    def test_keys_scoped_per_tenant(self, service):
        _, base_url = service
        heavy = client_for(base_url, "heavy-key")
        light = client_for(base_url, "light-key")
        a = heavy.submit(_spec(seed=52), idempotency_key="shared-name")
        b = light.submit(_spec(seed=53), idempotency_key="shared-name")
        assert a["id"] != b["id"]
        assert not b["replayed"]

    def test_concurrent_duplicate_posts_admit_exactly_once(self, service):
        """The satellite-3 race: N threads POST the same idempotency key
        simultaneously; exactly one admission, everyone gets its id."""
        svc, base_url = service
        results = []
        errors = []
        barrier = threading.Barrier(6)

        def duplicate_post():
            client = client_for(base_url, "heavy-key")
            barrier.wait()
            try:
                results.append(
                    client.submit(_spec(seed=54), idempotency_key="race-1")
                )
            except Exception as exc:  # noqa: BLE001 - collected for assertion
                errors.append(exc)

        threads = [threading.Thread(target=duplicate_post) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        assert not errors
        assert len(results) == 6
        ids = {r["id"] for r in results}
        assert len(ids) == 1
        assert sum(1 for r in results if not r["replayed"]) == 1
        # Exactly one job record exists for the burst.
        assert svc.store.states()["queued"] == 1


class TestFairShare:
    def test_light_tenant_overtakes_heavy_backlog(self, service):
        """Six heavy jobs are spooled first; a light job submitted last
        is still the second claim (its tag is the backlog's head)."""
        svc, base_url = service
        heavy = client_for(base_url, "heavy-key")
        light = client_for(base_url, "light-key")
        for seed in range(6):
            heavy.submit(_spec(seed=60 + seed))
        light_record = light.submit(_spec(seed=59))
        executed = []
        while len(executed) < 7:
            executed.append(run_one(svc))
        position = executed.index(light_record["id"])
        assert position <= 1, (
            f"light job ran {position + 1}th behind a 6-deep heavy backlog"
        )
        assert light.status(light_record["id"])["state"] == "done"

    def test_stats_exposes_tenants(self, service):
        _, base_url = service
        heavy = client_for(base_url, "heavy-key")
        for seed in range(3):
            heavy.submit(_spec(seed=70 + seed))
        stats = client_for(base_url, None).stats()
        assert stats["queue"]["depth"] == 3  # every admitted job is spooled
        gateway = stats["gateway"]
        assert gateway["mode"] == "tenants"
        assert gateway["active"]["heavy"]["jobs"] == 3
        assert gateway["tenants"]["heavy"]["weight"] == 1
        assert "api_key" not in json.dumps(gateway)
