"""The service/cluster seam: POST /jobs routed cluster-wide.

An in-process HTTP server with an attached coordinator and one
in-thread node: submissions must run on the cluster (no spool queue,
no worker pool), land in the content-addressed result cache, and show
up in ``/stats`` and ``/metrics``.
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

from .test_cluster_e2e import _start_thread_nodes


@pytest.fixture()
def cluster_service(tmp_path):
    """A live HTTP service whose jobs route to a one-node cluster."""
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


def test_submission_routes_to_the_cluster(cluster_service):
    svc, client, _ = cluster_service
    record = client.submit(_payload())
    assert record["state"] == "queued"
    done = client.wait(record["id"], timeout=120.0)
    assert done["state"] == "done"
    # The cluster route bypassed the spool queue entirely.
    assert svc.queue.depth() == 0
    events = [e["event"] for e in client.events(record["id"])]
    assert "claimed" in events
    queued = [e for e in client.events(record["id"]) if e["event"] == "queued"]
    assert queued[0]["route"] == "cluster"


def test_cluster_result_is_bit_identical_and_cached(cluster_service):
    svc, client, _ = cluster_service
    payload = _payload()
    record = client.submit(payload)
    done = client.wait(record["id"], timeout=120.0)
    fetched = client.result(done["id"])

    spec = JobSpec.from_dict(payload)
    local = finder_for(spec).find(
        Sequence(spec.normalized_sequence(), spec.alphabet)
    )
    expected = result_to_dict(local, digest=done["digest"], spec=spec)
    # Alignments/repeats bit-identical; work counters legitimately differ
    # (the nodes' first pass is counted once, not per-realignment replay).
    assert fetched["top_alignments"] == expected["top_alignments"]
    assert fetched["repeats"] == expected["repeats"]

    # Same digest resubmitted: born done from the content-addressed cache.
    again = client.submit(payload)
    assert again["from_cache"] is True


def test_stats_and_metrics_expose_the_cluster(cluster_service):
    svc, client, _ = cluster_service
    stats = client.stats()
    assert stats["cluster"]["nodes_alive"] == 1
    text = render_service_metrics(svc)
    assert "repro_cluster_nodes_alive 1" in text
    assert "repro_cluster_leases_issued_total" in text
    # The service families are still there: the prefixes do not collide.
    assert "repro_service_queue_depth" in text


def test_no_live_nodes_falls_back_to_the_spool_queue(tmp_path):
    """Attaching a coordinator never makes the service less available."""
    with Coordinator(CoordinatorConfig(port=0)) as coordinator:
        config = ServiceConfig(data_dir=str(tmp_path / "data"), port=0, workers=0)
        svc = ReproService(config, coordinator=coordinator)
        record, from_cache = svc.submit(_payload())
        assert not from_cache
        assert svc.queue.depth() == 1  # spooled, not routed to the empty cluster
