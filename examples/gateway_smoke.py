#!/usr/bin/env python
"""Gateway smoke test: multi-tenant admission, fair share, clean drain.

Two phases, both running real subprocesses on loopback:

**Tenant service drill** — ``repro serve --tenants`` with one worker
and nothing else set, so fair share is shown on the default
configuration:

* anonymous and wrong-key requests are rejected (401) while
  ``/healthz`` and ``/metrics`` stay open;
* a rate-capped tenant's second submission sheds with ``429`` and a
  ``Retry-After`` that, once honored, admits the retry;
* a duplicate ``POST /jobs`` with the same ``Idempotency-Key`` replays
  the original job — byte-identical job id, no second record;
* a light tenant (weight 4) submitting *behind* a saturating heavy
  tenant (weight 1, 8 spooled jobs) is started ahead of most of that
  backlog — its spool key carries the backlog head's fair-share tag,
  not its tail's — and ``repro_service_tenant_jobs`` still counts the
  heavy jobs as queued when it is done;
* SIGHUP hot-reloads the tenant file (a tenant added mid-flight can
  submit) and ``/metrics`` carries per-tenant gateway families;
* SIGTERM shuts the service down cleanly.

**Cluster drain drill** — a coordinator plus a slow node holding a
shard lease: SIGTERM makes the node finish its shard, say goodbye and
exit 0; a late-joining peer completes the scan **bit-identical** to
the single-node scanner with zero leases reassigned — drain is not
failover.

Exits non-zero on any failure, so CI can run it directly::

    python examples/gateway_smoke.py --log-dir gateway-logs
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

from repro.cluster import ClusterClient
from repro.cluster.protocol import report_to_dict
from repro.core.scan import DatabaseScanner
from repro.sequences import Sequence, pseudo_titin
from repro.service import (
    ClientBacklogFull,
    JobSpec,
    ServiceAuthError,
    ServiceClient,
)
from repro.service.protocol import finder_for

TENANTS = {
    "tenants": {
        "heavy": {"api_key": "smoke-heavy-key", "weight": 1},
        "light": {"api_key": "smoke-light-key", "weight": 4},
        "capped": {"api_key": "smoke-capped-key", "rate": 1, "burst": 1},
    }
}

RECORDS = [
    {"id": f"rec{i:02d}", "sequence": pseudo_titin(55 + 4 * i, seed=i).text}
    for i in range(6)
]
SCAN_SPEC = {"sequence": "AA", "alphabet": "protein", "top_alignments": 3}


def _spec(seed: int) -> dict:
    return {"sequence": pseudo_titin(70, seed=seed).text, "top_alignments": 3}


def _spawn(cmd: list[str], log_path: Path, **env_extra) -> subprocess.Popen:
    env = dict(os.environ)
    env.update(env_extra)
    log = open(log_path, "w")  # noqa: SIM115 - lives as long as the process
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *cmd],
        stdout=log,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )


def _await_banner(proc: subprocess.Popen, log_path: Path, banner: str) -> str:
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        text = log_path.read_text() if log_path.exists() else ""
        for line in text.splitlines():
            if banner in line:
                return line.split(banner, 1)[1].split()[0]
        if proc.poll() is not None:
            raise RuntimeError(f"process exited {proc.returncode}: {text}")
        time.sleep(0.1)
    proc.kill()
    raise RuntimeError(f"no {banner!r} banner in {log_path}")


def _stop(procs: list[subprocess.Popen]) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
    for proc in procs:
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)


def _client(url: str, key: str | None) -> ServiceClient:
    # submit_attempts=1 so 429s surface instead of being retried away.
    return ServiceClient(url, timeout=30, api_key=key, submit_attempts=1)


def _gateway_stats(url: str) -> dict:
    with urllib.request.urlopen(f"{url}/stats", timeout=10) as resp:
        return json.load(resp)["gateway"]


def check_auth(url: str) -> None:
    anonymous = _client(url, None)
    assert anonymous.healthz() == {"ok": True}, "/healthz must stay open"
    for key, expect in ((None, 401), ("wrong-key", 401)):
        try:
            _client(url, key).submit(_spec(seed=1))
        except ServiceAuthError as exc:
            assert exc.code == expect, exc
        else:
            raise AssertionError(f"key {key!r} was not rejected")
    print("auth: anonymous and wrong-key submissions rejected (401)")


def check_rate_quota(url: str) -> None:
    capped = _client(url, "smoke-capped-key")
    capped.submit(_spec(seed=2))
    try:
        capped.submit(_spec(seed=3))
    except ClientBacklogFull as exc:
        retry_after = exc.retry_after
    else:
        raise AssertionError("second submission was not rate-shed")
    assert retry_after >= 1, retry_after
    time.sleep(retry_after)  # honor the hint...
    record = capped.submit(_spec(seed=3))  # ...and the retry is admitted
    assert record["state"] in ("queued", "done"), record
    print(f"quota: 429 with Retry-After {retry_after}s, honored retry admitted")


def check_idempotency(url: str) -> None:
    heavy = _client(url, "smoke-heavy-key")
    first = heavy.submit(_spec(seed=4), idempotency_key="smoke-batch-1")
    assert not first["replayed"], first
    again = heavy.submit(_spec(seed=4), idempotency_key="smoke-batch-1")
    assert again["replayed"], again
    assert again["id"] == first["id"], (
        f"replay returned a different job: {again['id']} != {first['id']}"
    )
    print(f"idempotency: duplicate POST replayed job {first['id']} byte-identical")


def _metrics_text(url: str) -> str:
    with urllib.request.urlopen(f"{url}/metrics", timeout=10) as resp:
        return resp.read().decode("utf-8")


def _metric_value(url: str, sample: str) -> float:
    for line in _metrics_text(url).splitlines():
        if line.startswith(sample + " "):
            return float(line.rsplit(" ", 1)[1])
    return 0.0


def check_fair_share(url: str) -> None:
    heavy = _client(url, "smoke-heavy-key")
    light = _client(url, "smoke-light-key")
    heavy_ids = [heavy.submit(_spec(seed=10 + i))["id"] for i in range(8)]
    light_record = light.submit(_spec(seed=9))
    done = light.wait(light_record["id"], timeout=120)
    assert done["state"] == "done", done
    queued = _metric_value(
        url, 'repro_service_tenant_jobs{state="queued",tenant="heavy"}'
    )
    assert queued >= 4, (
        f"light tenant finished with only {queued:g}/8 heavy jobs queued "
        "— fair share did not overtake the backlog"
    )
    # The order workers started the jobs in is the claim order.
    started = [heavy.wait(jid, timeout=300)["started"] for jid in heavy_ids]
    ahead = sum(1 for t in started if t < done["started"])
    assert ahead <= 2, (
        f"{ahead}/8 heavy jobs were started before the light job "
        "submitted behind them"
    )
    print(
        f"fair share: light job started behind {ahead}/8 heavy jobs and "
        f"was done with {queued:g} still queued (weight 4 vs 1)"
    )


def check_sighup_reload(url: str, proc: subprocess.Popen, tenants_file: Path) -> None:
    config = json.loads(tenants_file.read_text(encoding="utf-8"))
    config["tenants"]["fresh"] = {"api_key": "smoke-fresh-key"}
    tenants_file.write_text(json.dumps(config), encoding="utf-8")
    proc.send_signal(signal.SIGHUP)
    deadline = time.monotonic() + 15
    while _gateway_stats(url)["config_reloads"] < 1:
        if time.monotonic() > deadline:
            raise AssertionError("SIGHUP reload never landed")
        time.sleep(0.1)
    record = _client(url, "smoke-fresh-key").submit(_spec(seed=5))
    assert record["state"] in ("queued", "done"), record
    print("reload: SIGHUP picked up a new tenant without a restart")


def check_metrics(url: str) -> None:
    text = _metrics_text(url)
    required = (
        'repro_gateway_admissions_total{route="spool",tenant="heavy"}',
        'repro_gateway_admissions_total{route="replay",tenant="heavy"}',
        'repro_gateway_rejections_total{reason="rate",tenant="capped"}',
        'repro_gateway_active_jobs{tenant="heavy"}',
        "repro_gateway_config_reloads 1",
        'repro_service_tenant_jobs{state="done",tenant="light"}',
    )
    for needle in required:
        assert needle in text, f"/metrics missing {needle}"
    print(f"metrics: per-tenant gateway families present ({len(required)} checked)")


def phase_tenant_service(log_dir: Path, data_dir: Path, tenants_file: Path) -> None:
    tenants_file.write_text(json.dumps(TENANTS), encoding="utf-8")
    serve_log = log_dir / "serve.log"
    proc = _spawn(
        [
            "serve",
            "--port", "0",
            "--workers", "1",
            "--queue-capacity", "32",
            "--data-dir", str(data_dir),
            "--tenants", str(tenants_file),
        ],
        serve_log,
        # Slow every job down so the heavy backlog is still pending
        # when the light tenant's job completes.
        REPRO_SERVICE_CHUNK_DELAY="0.05",
    )
    try:
        url = _await_banner(proc, serve_log, "repro service listening on")
        banner = serve_log.read_text()
        assert "tenants=capped,heavy,light" in banner, banner
        check_auth(url)
        check_rate_quota(url)
        check_idempotency(url)
        check_fair_share(url)
        check_sighup_reload(url, proc, tenants_file)
        check_metrics(url)
    finally:
        _stop([proc])
    tail = serve_log.read_text()
    assert proc.returncode == 0, f"service exited {proc.returncode}: {tail}"
    assert "repro service stopped" in tail, tail
    print("service shut down cleanly")


def _canon_local_scan() -> str:
    scanner = DatabaseScanner(finder=finder_for(JobSpec.from_dict(SCAN_SPEC)))
    sequences = [
        Sequence(rec["sequence"], "protein", id=rec["id"]) for rec in RECORDS
    ]
    return json.dumps(
        [report_to_dict(r) for r in scanner.scan(sequences)], sort_keys=True
    )


def phase_cluster_drain(log_dir: Path) -> None:
    """SIGTERM a node mid-lease: shard finishes, goodbye sent, exit 0."""
    coordinator = _spawn(
        [
            "cluster", "coordinator",
            "--port", "0",
            "--scan-shard-size", "1",
            "--node-timeout", "10",
        ],
        log_dir / "coordinator.log",
    )
    roller = None
    closer = None
    try:
        address = _await_banner(
            coordinator, log_dir / "coordinator.log",
            "repro cluster coordinator listening on",
        )
        host, _, port = address.rpartition(":")
        # The roller sleeps 1s holding each lease, so SIGTERM lands
        # mid-shard deterministically — drain must finish that shard.
        roller = _spawn(
            ["cluster", "node", "--join", address, "--node-id", "roller"],
            log_dir / "node-roller.log",
            REPRO_CLUSTER_SHARD_DELAY="1.0",
        )
        with ClusterClient(host, int(port)) as client:
            deadline = time.monotonic() + 30
            while client.stats()["nodes_alive"] < 1:
                if time.monotonic() > deadline:
                    raise RuntimeError("roller never registered")
                time.sleep(0.1)
            job_id = client.submit_scan(JobSpec.from_dict(SCAN_SPEC), RECORDS)
            while client.job_status(job_id)["in_flight"] == 0:
                if time.monotonic() > deadline:
                    raise RuntimeError("roller never took a lease")
                time.sleep(0.1)
            roller.send_signal(signal.SIGTERM)  # mid-shard, not mid-frame
            code = roller.wait(timeout=60)
            assert code == 0, f"drained node exited {code}"
            drain_deadline = time.monotonic() + 15
            while client.stats()["nodes_drained"] < 1:
                if time.monotonic() > drain_deadline:
                    raise AssertionError("goodbye never reached the coordinator")
                time.sleep(0.1)
            print("drain: SIGTERM node finished its shard, said goodbye, exited 0")
            closer = _spawn(
                ["cluster", "node", "--join", address, "--node-id", "closer"],
                log_dir / "node-closer.log",
            )
            reports = client.wait_scan(job_id, timeout=300.0)
            assert json.dumps(reports, sort_keys=True) == _canon_local_scan(), (
                "post-drain scan diverged from the single-node scanner"
            )
            status = client.job_status(job_id)
            released = status["scheduler"]["leases_released"]
            assert released == 0, (
                f"{released} lease(s) reassigned — drain fell back to failover"
            )
            stats = client.stats()
            assert stats["nodes"]["roller"]["drained"] is True, stats["nodes"]
            assert stats["autoscale"]["queue_depth"] == 0, stats["autoscale"]
            print(
                "drain: scan bit-identical to the single-node scanner, "
                "zero leases reassigned"
            )
    finally:
        _stop([p for p in (roller, closer) if p is not None])
        _stop([coordinator])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--log-dir",
        default=None,
        help="directory for service/coordinator/node logs (CI artifacts)",
    )
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="repro-gateway-smoke-") as tmp:
        log_dir = Path(args.log_dir) if args.log_dir else Path(tmp) / "logs"
        log_dir.mkdir(parents=True, exist_ok=True)
        phase_tenant_service(
            log_dir, Path(tmp) / "data", Path(tmp) / "tenants.json"
        )
        phase_cluster_drain(log_dir)
    print("gateway smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
