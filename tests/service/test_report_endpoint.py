"""``GET /jobs/<id>/report`` — annotation artifacts from the result cache.

The contract the CI smoke drill also exercises: the owning tenant gets
all three formats with a ``200``; a *different* tenant gets ``403`` —
not the 404 that ``GET /jobs/<id>`` uses to hide foreign job ids —
because a report request names a job the caller evidently knows about,
and the useful signal is "exists, not yours".  Rendering never re-runs
alignment: everything comes from the cached payload plus the stored
spec's residue text.
"""

import json
import threading
import urllib.error
import urllib.request
from http.server import ThreadingHTTPServer

import pytest

from repro.annot import validate_gff3
from repro.service.server import (
    ReproService,
    ServiceConfig,
    _Handler,
    _ServerState,
)
from repro.service.workers import execute_job

TENANTS = {
    "tenants": {
        "owner": {"api_key": "owner-key"},
        "stranger": {"api_key": "stranger-key"},
    }
}

REPETITIVE = "MKTAYIAKQR" * 5


@pytest.fixture()
def service(tmp_path):
    """A tenant-mode server on an ephemeral port, no worker pool."""
    tenants_file = tmp_path / "tenants.json"
    tenants_file.write_text(json.dumps(TENANTS), encoding="utf-8")
    config = ServiceConfig(
        data_dir=str(tmp_path / "data"),
        port=0,
        workers=0,
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


def _submit_and_run(svc, api_key="owner-key", sequence=REPETITIVE):
    admission = svc.admit(
        {"sequence": sequence, "seq_id": "rep", "top_alignments": 5},
        api_key=api_key,
    )
    job_id = admission.record.id
    if not admission.from_cache:
        claimed = svc.queue.claim()
        execute_job(svc.store, svc.cache, svc.store.get(claimed))
        svc.queue.discard(claimed)
    return job_id


def _get(base_url, path, api_key=None):
    request = urllib.request.Request(f"{base_url}{path}")
    if api_key:
        request.add_header("Authorization", f"Bearer {api_key}")
    with urllib.request.urlopen(request, timeout=10) as response:
        return (
            response.status,
            response.headers.get("Content-Type"),
            response.read().decode("utf-8"),
        )


def _get_error(base_url, path, api_key=None):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        _get(base_url, path, api_key)
    return excinfo.value.code


class TestFormats:
    def test_gff3_report(self, service):
        svc, base_url = service
        job_id = _submit_and_run(svc)
        status, content_type, body = _get(
            base_url, f"/jobs/{job_id}/report?format=gff3", "owner-key"
        )
        assert status == 200
        assert content_type.startswith("text/plain")
        assert validate_gff3(body) == []
        assert "repeat_region" in body

    def test_json_report_is_default_consistent_profile(self, service):
        svc, base_url = service
        job_id = _submit_and_run(svc)
        status, content_type, body = _get(
            base_url, f"/jobs/{job_id}/report?format=json", "owner-key"
        )
        assert status == 200
        assert content_type == "application/json"
        payload = json.loads(body)
        assert payload["format"] == "repro-profile"
        assert payload["sequences"][0]["id"] == "rep"
        assert payload["total_copy_residues"] > 0

    def test_html_report_is_self_contained(self, service):
        svc, base_url = service
        job_id = _submit_and_run(svc)
        status, content_type, body = _get(
            base_url, f"/jobs/{job_id}/report?format=html", "owner-key"
        )
        assert status == 200
        assert content_type.startswith("text/html")
        assert body.startswith("<!DOCTYPE html>")
        assert "http" not in body

    def test_default_format_is_gff3(self, service):
        svc, base_url = service
        job_id = _submit_and_run(svc)
        _, content_type, body = _get(
            base_url, f"/jobs/{job_id}/report", "owner-key"
        )
        assert content_type.startswith("text/plain")
        assert body.splitlines()[0] == "##gff-version 3"

    def test_unknown_format_is_400(self, service):
        svc, base_url = service
        job_id = _submit_and_run(svc)
        code = _get_error(
            base_url, f"/jobs/{job_id}/report?format=pdf", "owner-key"
        )
        assert code == 400

    def test_rendered_without_rerunning_alignment(self, service):
        svc, _ = service
        job_id = _submit_and_run(svc)
        rendered = svc.report(job_id, "gff3", tenant="owner")
        assert rendered is not None
        # The cached payload is the only result source: dropping the
        # cache entry makes the report 404 instead of recomputing.
        record = svc.store.get(job_id)
        svc.cache.path_for(record.digest).unlink()
        svc.cache._mem.clear()
        assert svc.report(job_id, "gff3", tenant="owner") is None


class TestTenantScoping:
    def test_stranger_gets_403(self, service):
        svc, base_url = service
        job_id = _submit_and_run(svc)
        for fmt in ("gff3", "json", "html"):
            code = _get_error(
                base_url,
                f"/jobs/{job_id}/report?format={fmt}",
                "stranger-key",
            )
            assert code == 403

    def test_owner_of_shared_digest_is_allowed(self, service):
        svc, base_url = service
        job_id = _submit_and_run(svc, "owner-key")
        # The stranger submits the identical spec: same digest, own
        # grant — their *own* job id reports fine, and the grant also
        # opens the owner's job id (digest-level ownership).
        stranger_job = _submit_and_run(svc, "stranger-key")
        status, _, _ = _get(
            base_url, f"/jobs/{stranger_job}/report", "stranger-key"
        )
        assert status == 200
        status, _, _ = _get(
            base_url, f"/jobs/{job_id}/report", "stranger-key"
        )
        assert status == 200

    def test_missing_key_is_401(self, service):
        svc, base_url = service
        job_id = _submit_and_run(svc)
        assert _get_error(base_url, f"/jobs/{job_id}/report") == 401


class TestNotFound:
    def test_unknown_job_is_404(self, service):
        _, base_url = service
        assert _get_error(base_url, "/jobs/nope/report", "owner-key") == 404

    def test_unfinished_job_is_404(self, service):
        svc, base_url = service
        admission = svc.admit(
            {"sequence": REPETITIVE, "top_alignments": 5},
            api_key="owner-key",
        )
        code = _get_error(
            base_url, f"/jobs/{admission.record.id}/report", "owner-key"
        )
        assert code == 404
