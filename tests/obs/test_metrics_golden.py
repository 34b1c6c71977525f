"""``/metrics`` for one fixed store state, byte for byte.

Every family of the ``repro.obs.families`` table is driven through its
real call site — the service's durable stores, the index tier, the
annotation renderers — with both clocks frozen, and the exposition text
must equal the golden rendered by the commit before the table existed:
names, help strings, buckets and labels are part of the scrape contract.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro import obs
from repro.core.scan import DatabaseScanner
from repro.gateway.tenants import ForbiddenError
from repro.index import IndexConfig, IndexStore
from repro.sequences import Sequence, pseudo_titin
from repro.service.metrics import render_service_metrics
from repro.service.protocol import JobSpec, finder_for
from repro.service.server import ReproService, ServiceConfig
from repro.service.workers import execute_job

GOLDEN = Path(__file__).parent / "fixtures" / "metrics_golden.txt"

#: 2026-10-03T00:00:00Z; any constant does — every duration reads 0.
NOW = 1_790_985_600.0


def _run_one(svc):
    job_id = svc.queue.claim()
    execute_job(svc.store, svc.cache, svc.store.get(job_id))
    svc.queue.discard(job_id)
    return job_id


def render_fixed_state(tmp_path, monkeypatch) -> str:
    monkeypatch.setattr(time, "time", lambda: NOW)
    monkeypatch.setattr(time, "perf_counter", lambda: 0.0)
    monkeypatch.setattr("repro.annot.model.perf_counter", lambda: 0.0)

    svc = ReproService(
        ServiceConfig(data_dir=str(tmp_path / "data"), port=0, workers=0)
    )
    svc.started = NOW - 90.0
    spec = {"sequence": pseudo_titin(60, seed=2).text, "top_alignments": 3}
    done, _ = svc.submit(spec)
    assert _run_one(svc) == done.id
    svc.store.update(done.id, created=NOW - 2.5, finished=NOW - 0.5)
    svc.submit(spec)  # born done from the cache
    failed, _ = svc.submit(dict(spec, top_alignments=4))
    svc.queue.discard(failed.id)
    svc.store.finish(failed.id, "failed", error="boom")
    svc.submit(dict(spec, top_alignments=5))  # stays queued
    svc.store.write_worker_stats(
        "worker-0", {"jobs_done": 1, "alignments": 59, "cells": 70210}
    )

    for fmt in ("gff3", "json", "html"):
        assert svc.report(done.id, fmt) is not None
    with pytest.raises(ForbiddenError):
        svc.report(done.id, "gff3", tenant="stranger")

    store = IndexStore(tmp_path / "index")
    records = [
        Sequence(pseudo_titin(72, seed=7).text, "protein", id="rep"),
        Sequence("ACDEFGHIKLMNPQRSTVWY" * 3, "protein", id="plain"),
    ]
    for _ in range(2):  # cold store, then warm
        DatabaseScanner(
            finder=finder_for(JobSpec(sequence="AA", top_alignments=2)),
            index=IndexConfig(),
            index_store=store,
        ).scan(records)

    return render_service_metrics(svc, workers_alive=2)


def test_metrics_text_is_byte_equal_to_the_golden(tmp_path, monkeypatch):
    obs.enable()
    assert render_fixed_state(tmp_path, monkeypatch) == GOLDEN.read_text()
