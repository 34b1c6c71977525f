"""The five workloads: what each feeds the program and through which path.

Each workload exists to let one part of the system do most of the work
(see ``why``); README.md has the long form and the interaction table.
A *pass* is one complete unit of measured work: FASTA in → reports out
for the in-process and cluster paths, one closed-loop schedule of jobs
for the service path.
"""

from __future__ import annotations

import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import inputs
from inputs import Record
from pipeline import DEFAULT, Knobs, PassOutput, Pipeline, Scoring
from reference import document_keys, record_key
from repro.service import JobSpec
from sessions import ClusterSession, JobTiming, ServeSession
from spans import Tracer

Size = dict[str, int]

#: Timed passes never fewer than this, however slow a pass is.
MIN_PASSES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    path: str  # "pipeline" | "serve" | "cluster"
    scoring: Scoring
    size: Size
    quick: Size
    #: (corpus seed, size, seconds) -> records; only the service corpus
    #: grows with the measuring time.
    make_records: Callable[[int, Size, float], list[Record]]
    why: str


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="titin_find",
            path="pipeline",
            scoring=Scoring("protein", 8.0, 1.0, 20, 0.0, index=False),
            size={"length": 400},
            quick={"length": 90},
            make_records=lambda corpus, size, seconds: inputs.titin_records(
                corpus, size["length"]
            ),
            why="one long protein, min_score 0: kernel fill is ~90 % of the pass; "
            "no index, nothing can prune",
        ),
        Workload(
            name="dna_scan_sparse",
            path="pipeline",
            scoring=Scoring("dna", 2.0, 1.0, 10, 90.0, index=True),
            size={"records": 18, "length": 240},
            quick={"records": 6, "length": 120},
            make_records=lambda corpus, size, seconds: inputs.sparse_dna_records(
                corpus, size["records"], size["length"]
            ),
            why="1 DNA record in 6 repetitive, cold index store: routing skips most "
            "records and seeded bounds trim the rest",
        ),
        Workload(
            name="dna_scan_dense",
            path="pipeline",
            scoring=Scoring("dna", 2.0, 1.0, 6, 140.0, index=True),
            size={"records": 4, "length": 300},
            quick={"records": 2, "length": 150},
            make_records=lambda corpus, size, seconds: inputs.dense_dna_records(
                corpus, size["records"], size["length"]
            ),
            why="every DNA record repetitive: routing can skip nothing so the index "
            "is pure overhead, while the prune gates fire",
        ),
        Workload(
            name="serve_mixed",
            path="serve",
            scoring=Scoring("protein", 8.0, 1.0, 5, 0.0, index=False),
            size={"jobs_per_second": 16, "min_length": 80, "max_length": 119},
            quick={"jobs_per_second": 6, "min_length": 40, "max_length": 59},
            # Three distinct specs for every four jobs; see DISTINCT_PER_REPEAT.
            make_records=lambda corpus, size, seconds: inputs.protein_records(
                corpus, 4, max(8, round(size["jobs_per_second"] * seconds)) * 3 // 4,
                size["min_length"], size["max_length"],
            ),
            why="small jobs through repro serve, 2 closed-loop clients, 25 % repeats: "
            "HTTP, admission, spool, checkpoints and cache outweigh the compute",
        ),
        Workload(
            name="cluster_scan",
            path="cluster",
            scoring=Scoring("protein", 8.0, 1.0, 5, 0.0, index=False),
            size={"records": 32, "min_length": 80, "max_length": 111},
            quick={"records": 8, "min_length": 40, "max_length": 47},
            make_records=lambda corpus, size, seconds: inputs.protein_records(
                corpus, 6, size["records"], size["min_length"], size["max_length"]
            ),
            why="sharded scan over a coordinator and 2 nodes: lease, frame transport "
            "and merge overhead on top of a known in-process time",
        ),
    )
}

#: One service submission in four repeats an earlier spec: one repeat
#: for every three distinct specs.
DISTINCT_PER_REPEAT = 3
#: Distinct-spec warm-up jobs (never checked in the result cache later).
SERVE_WARMUP_JOBS = 6


@dataclass
class PassResult:
    """One pass: its wall, per-job latencies and (record id, key) pairs."""

    wall: float
    latencies: list[float]
    keys: list[tuple[str, str]]
    errors: list[str] = field(default_factory=list)
    output: PassOutput | None = None
    timings: list[JobTiming] = field(default_factory=list)
    scheduler: dict[str, Any] = field(default_factory=dict)


class WorkloadPath:
    """What the runner needs from a workload's measured path."""

    def setup(self) -> None:
        """Get ready for the warm-up pass (this is what ``setup_s`` times)."""

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        raise NotImplementedError

    def warm_up(self) -> PassResult:
        return self.run_pass()

    def timed_passes(self, minimum: int, seconds: float) -> list[PassResult]:
        """At least ``minimum`` passes, and more until ``seconds`` are up."""
        deadline = time.perf_counter() + seconds
        passes: list[PassResult] = []
        while len(passes) < minimum or time.perf_counter() < deadline:
            passes.append(self.run_pass())
        return passes

    def close(self) -> None:
        """Stop every process :meth:`setup` started."""

    def peak_rss_mb(self) -> float:
        raise NotImplementedError


class PipelinePath(WorkloadPath):
    """In-process: the workload process is the program process."""

    def __init__(
        self, workload: Workload, records: list[Record], workdir: Path, seed: int
    ) -> None:
        self.scoring = workload.scoring
        self.workdir = workdir
        self.fasta = inputs.to_fasta(records)
        self.pipeline: Pipeline | None = None

    def setup(self) -> None:
        self.pipeline = Pipeline(self.scoring, self.workdir)

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        pipeline = self.pipeline
        if tracer is not None:
            # A traced pipeline is a new finder and engine: warm it like
            # the untraced one was, into a tracer nobody reads.
            Pipeline(self.scoring, self.workdir, tracer=Tracer("warm-up")).run(self.fasta)
            pipeline = Pipeline(self.scoring, self.workdir, tracer=tracer)
        assert pipeline is not None
        output = pipeline.run(self.fasta)
        keys = list(document_keys(output.document).items())
        return PassResult(output.wall, [output.wall], keys, output=output)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class ServePath(WorkloadPath):
    """``repro serve`` subprocess, two closed-loop client threads.

    One pass is one schedule on a fresh server and data dir, so repeats
    hit a cache that only this schedule filled; a run times one schedule.
    """

    def __init__(
        self, workload: Workload, records: list[Record], workdir: Path, seed: int
    ) -> None:
        scoring = workload.scoring
        order = inputs.job_schedule(
            seed, len(records), len(records) // DISTINCT_PER_REPEAT
        )
        self.specs = [scoring.job_spec(*records[i]) for i in order]
        warm = inputs.protein_records(inputs.CORPUS_SEED, 7, SERVE_WARMUP_JOBS, 40, 60)
        self.warm_specs = [scoring.job_spec(f"warm-{rid}", text) for rid, text in warm]
        self.workdir = workdir
        self.seed = seed
        self.session: ServeSession | None = None
        self.used = False
        self.rss_mb = 0.0
        self.rejected_share = 0.0
        self.http_roundtrips: list[float] = []

    def setup(self) -> None:
        self.session = ServeSession(self.workdir, self.seed)
        self.session.start()
        self.used = False

    def warm_up(self) -> PassResult:
        """Distinct small jobs: workers import and settle, and nothing the
        schedule submits is cached.  Their outputs have no reference."""
        assert self.session is not None
        wall, timings = self.session.run_schedule(self.warm_specs)
        result = self._result(wall, timings)
        result.keys = []
        return result

    def timed_passes(self, minimum: int, seconds: float) -> list[PassResult]:
        return [self.run_pass()]

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        if self.used:
            self.close()
            self.setup()
            self.warm_up()
        assert self.session is not None
        self.used = True
        offset = _clock_offset()
        wall, timings = self.session.run_schedule(self.specs)
        self.rejected_share = self.session.rejected_share()
        self.http_roundtrips = self.session.http_roundtrips(20)
        result = self._result(wall, timings)
        if tracer is not None:
            _job_spans(tracer, wall, timings, offset)
        return result

    @staticmethod
    def _result(wall: float, timings: list[JobTiming]) -> PassResult:
        return PassResult(
            wall,
            [t.latency for t in timings],
            [(t.seq_id, t.key) for t in timings],
            errors=[f"{t.seq_id}: {t.error}" for t in timings if t.error],
            timings=timings,
        )

    def close(self) -> None:
        if self.session is not None:
            session, self.session = self.session, None
            session.stop()
            self.rss_mb = max(self.rss_mb, session.maxrss_mb)

    def peak_rss_mb(self) -> float:
        return self.rss_mb


def _clock_offset() -> float:
    """``time.time() - time.perf_counter()``: maps the server's wall-clock
    job stamps onto the client's span clock."""
    # repro-lint: allow[RPR011] the job record's stamps are epoch seconds
    return time.time() - time.perf_counter()


def _job_spans(
    tracer: Tracer, wall: float, timings: list[JobTiming], offset: float
) -> None:
    """Spans of one schedule, built after the client threads are done."""
    first = min(t.submit_start for t in timings)
    root = tracer.add("pass", first, first + wall, None)
    for t in timings:
        job = tracer.add("service.job", t.submit_start, t.fetch_end, root)
        tracer.add("service.submit", t.submit_start, t.submit_end, job)
        waited = tracer.add("service.wait", t.submit_end, t.wait_end, job)
        tracer.add("service.fetch", t.wait_end, t.fetch_end, job)
        if t.started > 0:
            tracer.add(
                "service.queue_wait", t.created - offset, t.started - offset, waited
            )
            tracer.add("service.run", t.started - offset, t.finished - offset, waited)


class ClusterPath(WorkloadPath):
    """Coordinator + 2 node subprocesses; one pass is one sharded scan."""

    def __init__(
        self, workload: Workload, records: list[Record], workdir: Path, seed: int
    ) -> None:
        self.spec = JobSpec.from_dict(workload.scoring.job_spec("", "AA"))
        self.records = [{"id": rid, "sequence": text} for rid, text in records]
        self.workdir = workdir
        self.session: ClusterSession | None = None
        self.rss_mb = 0.0
        self.final_stats: dict[str, Any] = {}
        self.roundtrips: list[float] = []

    def setup(self) -> None:
        self.session = ClusterSession(self.workdir)
        self.session.start()

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        assert self.session is not None
        with tracer.span("pass") if tracer is not None else nullcontext():
            wall, reports, scheduler = self.session.scan(self.spec, self.records)
        keys = [
            (r["id"], "error" if r["error"] is not None else record_key(r["result"]))
            for r in reports
        ]
        return PassResult(wall, [wall], keys, scheduler=scheduler)

    def close(self) -> None:
        if self.session is not None:
            session, self.session = self.session, None
            try:
                self.roundtrips = session.frame_roundtrips(20)
                self.final_stats = session.stats()
            finally:
                session.stop()
            self.rss_mb = max(self.rss_mb, session.maxrss_mb)

    def peak_rss_mb(self) -> float:
        return self.rss_mb


PATHS = {"pipeline": PipelinePath, "serve": ServePath, "cluster": ClusterPath}


def make_path(
    workload: Workload, records: list[Record], workdir: Path, seed: int
) -> WorkloadPath:
    return PATHS[workload.path](workload, records, workdir, seed)


def inprocess_pass(
    scoring: Scoring, records: list[Record], workdir: Path, knobs: Knobs = DEFAULT,
    tracer: Tracer | None = None, root: str = "pass",
) -> PassOutput:
    """One in-process pipeline pass over ``records`` under ``knobs``."""
    return Pipeline(scoring, workdir, knobs, tracer, root).run(inputs.to_fasta(records))


#: titin_find's kernel share of a pass, measured over 60 corpora at
#: length 400: median 0.895, minimum 0.833 (the issue's 0.85 held only
#: for its length 640 on one corpus).
ENGINE_SHARE_FLOOR = 0.75


def self_checks(
    workload: Workload, last: PassResult, path, metrics: dict[str, float] | None
) -> dict[str, tuple[bool, str]]:
    """Each workload must visibly stress what its ``why`` says, or the
    run fails.  ``metrics`` are the per-layer values of a traced run."""
    checks: dict[str, tuple[bool, str]] = {}
    if last.output is not None:
        results = [r.result for r in last.output.reports if r.result is not None]
        stats = last.output.index_stats
    if workload.name == "titin_find":
        share = sum(r.stats.engine_seconds for r in results) / last.wall
        checks[f"engine_share>={ENGINE_SHARE_FLOOR}"] = (
            share >= ENGINE_SHARE_FLOOR, f"{share:.3f}"
        )
    elif workload.name == "dna_scan_sparse":
        share = stats["skip"] / stats["records"]
        checks["route_skip_share>=0.5"] = (share >= 0.5, f"{share:.3f}")
    elif workload.name == "dna_scan_dense":
        share = stats["skip"] / stats["records"]
        pruned = sum(r.stats.pruned_lanes for r in results)
        checks["route_skip_share<=0.2"] = (share <= 0.2, f"{share:.3f}")
        checks["pruned_lanes>0"] = (pruned > 0, str(pruned))
    elif workload.name == "serve_mixed":
        hits = sum(t.from_cache for t in last.timings) / len(last.timings)
        checks["cache_hit_share_in_0.15..0.35"] = (0.15 <= hits <= 0.35, f"{hits:.3f}")
        if metrics is not None:
            share = metrics["service.overhead_share"]
            checks["service.overhead_share>=0.5"] = (share >= 0.5, f"{share:.3f}")
    elif workload.name == "cluster_scan":
        done = [n["shards_done"] for n in path.final_stats["nodes"].values()]
        checks["every_node_ran_a_shard"] = (len(done) >= 2 and min(done) >= 1, str(done))
    return checks
