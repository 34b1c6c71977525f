"""The traced run's per-layer metrics (everything ``--trace 1`` reports).

Three sources, in the order the choosing-metrics guide gives them:
spans recorded around calls into each layer (:mod:`spans`), counts the
program itself keeps (``RunStats``, coordinator scheduler stats, job
records) and direct timed calls on the workload's inputs
(:mod:`layers`).  Every metric is produced for every workload: the
service and cluster layers get a short session on the workload's own
residues when the workload's path does not go through them.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from pathlib import Path
from typing import Any

import layers
import spans
from inputs import Record, to_fasta
from pipeline import LATTICE, PassOutput, Scoring
from reference import document_keys
from repro import obs
from repro.core.api import RepeatFinder
from repro.core.scan import DatabaseScanner
from repro.sequences.fasta import parse_fasta_text
from repro.service import JobSpec
from sessions import CLUSTER_NODES, ClusterSession, JobTiming, ServeSession
from workloads import Workload, inprocess_pass

#: Records of a service workload the in-process analysis covers.
ANALYSIS_RECORDS = 24
#: Jobs / records / residues per record of the short service and cluster
#: sessions that give the other workloads' inputs a number for those layers.
PROBE_JOBS = 12
PROBE_RECORDS = 8
PROBE_LENGTH = 100

def probe_windows(records: list[Record], count: int, length: int) -> list[Record]:
    """``count`` distinct, evenly spaced windows of the workload's residues."""
    text = "".join(t for _, t in records)
    length = min(length, len(text) // 2)
    stride = (len(text) - length) // max(count - 1, 1)
    return [
        (f"probe{i:02d}", text[i * stride : i * stride + length]) for i in range(count)
    ]


def find_seconds(scoring: Scoring, records: list[Record]) -> list[float]:
    """In-process ``RepeatFinder.find`` seconds of each record."""
    finder = RepeatFinder(**scoring.finder_kwargs())
    out = []
    for sequence in parse_fasta_text(to_fasta(records), scoring.alphabet):
        started = time.perf_counter()
        finder.find(sequence)
        out.append(time.perf_counter() - started)
    return out


def scan_seconds(scoring: Scoring, records: list[Record]) -> float:
    """In-process unindexed ``DatabaseScanner.scan`` seconds (what a
    cluster scan does, on one process)."""
    scanner = DatabaseScanner(finder=RepeatFinder(**scoring.finder_kwargs()))
    sequences = parse_fasta_text(to_fasta(records), scoring.alphabet)
    started = time.perf_counter()
    scanner.scan(sequences)
    return time.perf_counter() - started


def service_metrics(
    timings: list[JobTiming],
    inprocess: list[float],
    roundtrips: list[float],
    rejected_share: float,
) -> dict[str, float]:
    ok = [t for t in timings if not t.error]
    misses = [t for t in ok if not t.from_cache]
    hits = [t for t in ok if t.from_cache]
    median = statistics.median
    miss_latency = median(t.latency for t in misses)
    return {
        "service.submit_s": median(t.submit_end - t.submit_start for t in ok),
        "service.queue_wait_s": median(t.started - t.created for t in misses),
        "service.run_s": median(t.finished - t.started for t in misses),
        "service.fetch_s": median(t.fetch_end - t.wait_end for t in ok),
        "service.http_roundtrip_s": median(roundtrips),
        "service.cache_hit_share": len(hits) / len(ok),
        "service.hit_latency_s": median(t.latency for t in hits) if hits else 0.0,
        "service.miss_latency_s": miss_latency,
        "service.overhead_share": 1.0 - median(inprocess) / miss_latency,
        "gateway.rejected_share": rejected_share,
    }


def cluster_metrics(
    walls: list[float],
    schedulers: list[dict[str, Any]],
    stats: dict[str, Any],
    roundtrips: list[float],
    inprocess_wall: float,
) -> dict[str, float]:
    def per_pass(*keys: str) -> float:
        return statistics.median(sum(s[k] for k in keys) for s in schedulers)

    wall = statistics.median(walls)
    return {
        "cluster.frame_roundtrip_s": statistics.median(roundtrips),
        "cluster.shards": per_pass("shards"),
        "cluster.leases_granted": per_pass("leases_issued"),
        "cluster.leases_requeued": per_pass("leases_expired", "leases_released"),
        "cluster.steals": per_pass("leases_stolen"),
        "cluster.lease_latency_s": stats["autoscale"]["lease_latency"],
        "cluster.parallel_efficiency": inprocess_wall / (CLUSTER_NODES * wall),
        "cluster.overhead_s": wall - inprocess_wall / CLUSTER_NODES,
    }


def probe_service(
    scoring: Scoring, windows: list[Record], jobs: int, workdir: Path, seed: int
) -> dict[str, float]:
    """A short service session on the workload's residues: the distinct
    windows once, then the first ones again (guaranteed cache hits)."""
    specs = [scoring.job_spec(*w) for w in windows]
    specs += specs[: jobs - len(specs)]
    session = ServeSession(workdir, seed)
    session.start()
    try:
        _, timings = session.run_schedule(specs)
        roundtrips = session.http_roundtrips(20)
        rejected = session.rejected_share()
    finally:
        session.stop()
    errors = [t.error for t in timings if t.error]
    if errors:
        raise RuntimeError(f"service probe job failed: {errors[0]}")
    return service_metrics(timings, find_seconds(scoring, windows), roundtrips, rejected)


def probe_cluster(
    scoring: Scoring, windows: list[Record], workdir: Path, scans: int
) -> dict[str, float]:
    """A short two-node cluster session on the workload's residues."""
    spec = JobSpec.from_dict(scoring.job_spec("", "AA"))
    payload = [{"id": rid, "sequence": text} for rid, text in windows]
    session = ClusterSession(workdir)
    session.start()
    try:
        session.scan(spec, payload)  # warm-up: nodes import on first shard
        runs = [session.scan(spec, payload) for _ in range(scans)]
        roundtrips = session.frame_roundtrips(20)
        stats = session.stats()
    finally:
        session.stop()
    return cluster_metrics(
        [wall for wall, _, _ in runs],
        [scheduler for _, _, scheduler in runs],
        stats,
        roundtrips,
        scan_seconds(scoring, windows),
    )


def _stat_sum(output: PassOutput, ids: set[str], field: str) -> int:
    return sum(
        getattr(r.result.stats, field)
        for r in output.reports
        if r.result is not None and r.id in ids
    )


def analyse(
    workload: Workload,
    path,
    records: list[Record],
    passes,
    traced,
    tracer: spans.Tracer,
    reference_output: PassOutput,
    workdir: Path,
    seed: int,
    repeat: int,
) -> tuple[dict[str, float], list[str]]:
    """(metrics, problems) of one traced run; ``repeat`` is how often the
    fresh-interpreter and cluster probes run (1 under ``--quick``)."""
    scoring = workload.scoring
    problems: list[str] = []
    subset = records[:ANALYSIS_RECORDS] if workload.path == "serve" else records
    ids = {rid for rid, _ in subset}

    # The in-process view of the workload's records: one untraced
    # default pass (the base of every ratio) and one traced pass.
    default = inprocess_pass(scoring, subset, workdir)
    if workload.path == "pipeline":
        inproc, root = traced.output, "pass"
    else:
        root = "inprocess"
        inproc = inprocess_pass(scoring, subset, workdir, tracer=tracer, root=root)
    total = spans.totals(tracer.spans)
    own = spans.self_times(tracer.spans)
    m: dict[str, float] = {}

    cells = _stat_sum(inproc, ids, "cells")
    m["core.find.engine_s"] = total.get("align.engine", 0.0)
    m["core.find.self_s"] = own.get("core.find", 0.0)
    m["core.find.engine_calls"] = inproc.engine.calls
    m["core.find.cells"] = cells
    for field in ("alignments", "realignments", "tracebacks", "pruned_lanes"):
        m[f"core.find.{field}"] = _stat_sum(inproc, ids, field)
    m["core.find.cells_avoided_share"] = 1.0 - cells / _stat_sum(
        reference_output, ids, "cells"
    )
    m["core.scan.self_s"] = own["core.scan"]
    m["core.delineate_s"] = total.get("core.delineate", 0.0)
    m["core.serialise_s"] = total["core.serialise"]
    m["core.serialise_bytes"] = len(inproc.document.encode("utf-8"))
    m["annot.annotate_s"] = total["annot.annotate"]
    m["annot.gff3_s"] = total["annot.gff3"]
    m["annot.profile_s"] = total["annot.profile"]
    m["annot.html_s"] = total["annot.html"]
    if inproc.engine.cells != cells:
        problems.append(
            f"delegating engine saw {inproc.engine.cells} cells, RunStats {cells}"
        )

    # One pass per knob setting over the same records, tops byte-equal.
    # The machine's speed drifts in phases of several seconds, so each
    # setting is divided by the mean of the default passes around it.
    want = document_keys(default.document)
    before = default.wall
    ratios = []
    for name, knobs in LATTICE.items():
        output = inprocess_pass(scoring, subset, workdir, knobs)
        after = inprocess_pass(scoring, subset, workdir).wall
        ratios.append(output.wall / ((before + after) / 2))
        m[f"core.lattice.{name}.ratio"] = ratios[-1]
        before = after
        if document_keys(output.document) != want:
            problems.append(f"lattice setting {name} changed the accepted tops")
    m["core.lattice.best_over_default"] = min(1.0, *ratios)

    obs.enable()
    try:
        m["obs.on_overhead_ratio"] = inprocess_pass(scoring, subset, workdir).wall / before
    finally:
        obs.disable()

    m.update(layers.probe(to_fasta(subset), scoring, default.reports, workdir, repeat))

    probe_scoring = dataclasses.replace(
        scoring, top_alignments=5, min_score=0.0, index=False
    )
    if workload.path == "serve":
        m.update(
            service_metrics(
                traced.timings,
                find_seconds(scoring, subset),
                path.http_roundtrips,
                path.rejected_share,
            )
        )
    else:
        windows = probe_windows(records, PROBE_JOBS * 3 // 4, PROBE_LENGTH)
        m.update(probe_service(probe_scoring, windows, PROBE_JOBS, workdir, seed))
    if workload.path == "cluster":
        runs = [*passes, traced]
        m.update(
            cluster_metrics(
                [p.wall for p in runs],
                [p.scheduler for p in runs],
                path.final_stats,
                path.roundtrips,
                scan_seconds(scoring, records),
            )
        )
    else:
        windows = probe_windows(records, PROBE_RECORDS, PROBE_LENGTH)
        m.update(probe_cluster(probe_scoring, windows, workdir, repeat))

    base = statistics.median(p.wall for p in passes)
    m["trace.overhead_ratio"] = traced.wall / base

    return m, problems
