"""The service/cluster seam: one live node, and POST /jobs stays local.

An in-process HTTP server with an attached coordinator and one
in-thread node: the coordinator shows up in ``/stats`` and
``/metrics``, and a submission still goes to the spool and is run by
a local worker, with the tops :meth:`RepeatFinder.find` gives.
"""

import threading
from http.server import ThreadingHTTPServer

import pytest

from repro.cluster import Coordinator, CoordinatorConfig
from repro.sequences import Sequence, pseudo_titin
from repro.service import ServiceClient
from repro.service.metrics import render_service_metrics
from repro.service.protocol import JobSpec, finder_for, result_to_dict
from repro.service.server import ReproService, ServiceConfig, _Handler, _ServerState
from repro.service.workers import execute_job

from .test_cluster_e2e import _start_thread_nodes


@pytest.fixture()
def cluster_service(tmp_path):
    """A live HTTP service with a one-node cluster and no worker pool."""
    coordinator_config = CoordinatorConfig(
        port=0,
        heartbeat_interval=0.2,
        node_timeout=2.0,
        monitor_interval=0.05,
    )
    with Coordinator(coordinator_config) as coordinator:
        agents, _ = _start_thread_nodes(coordinator, 1)
        config = ServiceConfig(data_dir=str(tmp_path / "data"), port=0, workers=0)
        svc = ReproService(config, coordinator=coordinator)
        httpd = ThreadingHTTPServer((config.host, 0), _Handler)
        httpd.daemon_threads = True
        httpd.state = _ServerState(service=svc)
        thread = threading.Thread(
            target=httpd.serve_forever, kwargs={"poll_interval": 0.02}, daemon=True
        )
        thread.start()
        client = ServiceClient(
            f"http://127.0.0.1:{httpd.server_address[1]}", timeout=10
        )
        try:
            yield svc, client, coordinator
        finally:
            httpd.shutdown()
            httpd.server_close()
            thread.join(5)
            for agent in agents:
                agent.stop()


def _payload(**overrides):
    payload = {"sequence": pseudo_titin(90, seed=5).text, "top_alignments": 3}
    payload.update(overrides)
    return payload


def test_stats_and_metrics_expose_the_cluster(cluster_service):
    svc, client, _ = cluster_service
    stats = client.stats()
    assert stats["cluster"]["nodes_alive"] == 1
    text = render_service_metrics(svc)
    assert "repro_cluster_nodes_alive 1" in text
    assert "repro_cluster_leases_issued_total" in text
    # The service families are still there: the prefixes do not collide.
    assert "repro_service_queue_depth" in text


def test_with_a_live_node_a_job_is_still_spooled_and_run_locally(cluster_service):
    svc, client, coordinator = cluster_service
    assert coordinator.registry.alive_count() == 1
    payload = _payload()
    record = client.submit(payload)
    assert record["state"] == "queued"
    assert svc.queue.depth() == 1
    queued = [e for e in client.events(record["id"]) if e["event"] == "queued"]
    assert "route" not in queued[0]

    # An inline stand-in for a local worker: claim, execute, discard.
    job_id = svc.queue.claim()
    assert job_id == record["id"]
    assert execute_job(svc.store, svc.cache, svc.store.get(job_id)) == "done"
    svc.queue.discard(job_id)
    assert coordinator.stats()["jobs"] == {}  # the cluster never saw it

    spec = JobSpec.from_dict(payload)
    local = finder_for(spec).find(
        Sequence(spec.normalized_sequence(), spec.alphabet)
    )
    expected = result_to_dict(local, digest=record["digest"], spec=spec)
    fetched = client.result(job_id)
    assert fetched["top_alignments"] == expected["top_alignments"]
    assert fetched["repeats"] == expected["repeats"]
