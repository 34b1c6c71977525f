#!/usr/bin/env python
"""Service smoke test: serve, submit, cache-hit, graceful shutdown.

Starts ``repro serve`` as a real subprocess on an ephemeral port,
submits two jobs — the second a duplicate of the first — and asserts:

* both jobs reach ``done`` and their results are fetchable;
* the duplicate was served from the content-addressed cache (born
  done, never queued) while the workers' alignment counters did not
  move — zero realignment work;
* the service result matches an in-process run of the same spec
  through the library bit-for-bit (top alignments and repeat families);
* a finished job's record counts the tops its result holds, also when
  the search finds fewer than asked for and the job is born done from
  the cache;
* ``GET /metrics`` serves valid Prometheus text exposition covering
  queue depth, cache hits and job latency (``--metrics-out`` saves the
  parsed samples as a JSON artifact for CI);
* SIGTERM shuts the service down cleanly (exit code 0, workers
  drained).

Exits non-zero on any failure, so CI can run it directly::

    python examples/service_smoke.py
"""

import argparse
import json
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path

from repro.sequences import Sequence, pseudo_titin
from repro.service import JobSpec, ServiceClient
from repro.service.protocol import finder_for

K = 6
SEQUENCE = pseudo_titin(90, seed=11)
#: A protein with no local alignment scoring 30: its search finds no top.
SPARSE = {"sequence": "MKTAYIAKQRQISFVKSHFSRQ", "top_alignments": 5, "min_score": 30}


def start_service(data_dir: str) -> tuple[subprocess.Popen, str]:
    """Launch ``repro serve`` on an ephemeral port; returns (proc, url)."""
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--workers",
            "2",
            "--data-dir",
            data_dir,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    # The first line announces the bound address:
    #   repro service listening on http://127.0.0.1:PORT (...)
    line = proc.stdout.readline()
    if "listening on" not in line:
        proc.kill()
        raise RuntimeError(f"unexpected service banner: {line!r}")
    url = line.split("listening on", 1)[1].split()[0]
    deadline = time.monotonic() + 15
    while time.monotonic() < deadline:
        try:
            with urllib.request.urlopen(f"{url}/healthz", timeout=2) as resp:
                if json.load(resp).get("ok"):
                    return proc, url
        except OSError:
            time.sleep(0.1)
    proc.kill()
    raise RuntimeError("service never became healthy")


#: One Prometheus sample line: ``name{labels} value`` with optional labels.
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"  # metric name
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" (?:[+-]?(?:Inf|NaN|[0-9.eE+-]+))$"
)

#: Families /metrics must cover (the ISSUE's acceptance list).
_REQUIRED_FAMILIES = (
    "repro_service_queue_depth",
    "repro_service_cache_hits_total",
    "repro_service_cache_misses_total",
    "repro_service_job_seconds_bucket",
    "repro_service_job_seconds_count",
    "repro_service_workers_alive",
    "repro_http_requests_total",
)


def check_metrics(url: str, metrics_out: str | None) -> None:
    """Scrape /metrics, validate the exposition, optionally save a JSON artifact."""
    with urllib.request.urlopen(f"{url}/metrics", timeout=10) as resp:
        content_type = resp.headers.get("Content-Type", "")
        text = resp.read().decode("utf-8")
    assert content_type.startswith("text/plain"), content_type
    assert "version=0.0.4" in content_type, content_type
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        assert _SAMPLE_RE.match(line), f"invalid exposition line: {line!r}"
        family = line.split("{", 1)[0].split(" ", 1)[0]
        samples[family] = float(line.rsplit(" ", 1)[1])
    missing = [f for f in _REQUIRED_FAMILIES if f not in samples]
    assert not missing, f"/metrics is missing families: {missing}"
    assert samples["repro_service_workers_alive"] == 2, "expected 2 live workers"
    assert samples["repro_service_job_seconds_count"] >= 1, (
        "at least one computed job must land in the latency histogram"
    )
    print(f"metrics: {len(samples)} families, Prometheus exposition valid")
    if metrics_out:
        Path(metrics_out).write_text(
            json.dumps({"content_type": content_type, "samples": samples}, indent=2, sort_keys=True)
            + "\n",
            encoding="utf-8",
        )
        print(f"metrics artifact written to {metrics_out}")


def check_found(client: ServiceClient, job_ids: list[str]) -> None:
    """Each job is done and its record's ``found`` is its result's top count."""
    for job_id in job_ids:
        record = client.status(job_id)
        assert record["state"] == "done", record
        tops = len(client.result(job_id)["top_alignments"])
        assert record["found"] == tops, f"job {job_id}: found={record['found']}, {tops} tops"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--metrics-out",
        default=None,
        help="write the scraped /metrics samples to this JSON file",
    )
    args = parser.parse_args(argv)
    spec = {"sequence": SEQUENCE.text, "seq_id": SEQUENCE.id, "top_alignments": K}
    with tempfile.TemporaryDirectory(prefix="repro-service-smoke-") as tmp:
        proc, url = start_service(str(Path(tmp) / "data"))
        try:
            client = ServiceClient(url, timeout=30)

            first = client.submit(spec)
            assert not first["from_cache"], "fresh submission must not hit the cache"
            done = client.wait(first["id"], timeout=120)
            assert done["state"] == "done", done
            print(f"job 1: {done['id']} done, found={done['found']}")

            aligned = client.stats()["alignments_total"]
            assert aligned > 0, "workers reported no alignment work"

            duplicate = client.submit(spec)
            assert duplicate["from_cache"], "duplicate must be served from cache"
            assert duplicate["state"] == "done"
            assert duplicate["digest"] == first["digest"]
            assert client.stats()["alignments_total"] == aligned, (
                "cache hit must do zero alignment work"
            )
            print(f"job 2: {duplicate['id']} served from cache, zero new alignments")

            events = [e["event"] for e in client.events(first["id"])]
            assert events[0] == "queued" and events[-1] == "done", events
            assert "progress" in events, events

            payload = client.result(first["digest"])
            # The same spec, executed in-process through the library.
            expected = finder_for(JobSpec.from_dict(spec)).find(
                Sequence(SEQUENCE.text, "protein", id=SEQUENCE.id)
            )
            got = [(a["r"], a["score"]) for a in payload["top_alignments"]]
            want = [(a.r, a.score) for a in expected.top_alignments]
            assert got == want, f"service result diverged: {got} != {want}"
            got_families = [tuple(map(tuple, r["copies"])) for r in payload["repeats"]]
            want_families = [tuple(r.copies) for r in expected.repeats]
            assert got_families == want_families, "repeat families diverged"
            print(f"results identical to the in-process library run ({K} alignments)")

            check_found(client, [first["id"], duplicate["id"]])
            sparse = client.submit(SPARSE)
            client.wait(sparse["id"], timeout=120)
            sparse_duplicate = client.submit(SPARSE)
            assert sparse_duplicate["from_cache"], "duplicate must be served from cache"
            check_found(client, [sparse["id"], sparse_duplicate["id"]])
            print("every finished record counts the tops its result holds")

            check_metrics(url, args.metrics_out)
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                code = proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        tail = proc.stdout.read()
        assert code == 0, f"service exited {code}: {tail}"
        assert "repro service stopped" in tail, tail
        print("service shut down cleanly")
    print("service smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
