"""Direct timed calls into each layer's public functions.

These are the per-layer numbers that do not come from spans: one
layer's function called on the workload's own inputs, alone, several
times, median reported.  They say what a layer costs *per call*; the
spans say how much of a pass it took.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

import numpy as np

from pipeline import Scoring
from procs import program_env
from repro.align import (
    AlignmentProblem,
    LanesEngine,
    PruneContext,
    QueryProfile,
    VectorEngine,
    full_matrix,
    iter_rows,
    traceback,
)
from repro.core.api import RepeatFinder
from repro.core.scan import SequenceReport
from repro.index import IndexConfig, IndexStore, build_profile, classify, seed_score_bounds
from repro.scoring.blosum import blosum62
from repro.scoring.exchange import match_mismatch
from repro.sequences.alphabet import alphabet_for
from repro.sequences.fasta import parse_fasta_text
from repro.sequences.sequence import Sequence
from repro.service import JobSpec, JobStore, SpoolQueue, job_digest
from repro.service.cache import ResultCache
from repro.service.protocol import result_to_dict
from stats import timed

#: Array passes per cell of the row-vectorised Equation 1 recurrence
#: (``repro.align.vector.iter_rows``): 17 element reads + 11 element
#: writes across its numpy calls.  Times the row dtype's item size this
#: is the bytes the default kernel moves per cell — computed, not
#: measured; it changes when the work dtype narrows.
ARRAY_PASSES_PER_CELL = 28

#: Adjacent splits around the middle of the sequence: the near-equal
#: shapes a lane batch of neighbouring splits has.
KERNEL_SPLITS = 8


def _kernel_problems(
    sequence: Sequence, finder: RepeatFinder, gated: bool
) -> tuple[list[AlignmentProblem], int]:
    exchange = finder.resolve_exchange(sequence)
    codes = sequence.codes
    m = codes.size
    profile = QueryProfile(codes, exchange)
    context = None
    if gated:
        # min_score 0 and no cap: a gate that can never prune, so the
        # ratio to the ungated fill is the gate's pure overhead.
        context = PruneContext(profile)
        context.configure(0.0)
    first = max(1, m // 2 - KERNEL_SPLITS // 2)
    splits = [r for r in range(first, first + KERNEL_SPLITS) if r < m]
    problems = [
        AlignmentProblem(
            codes[:r],
            codes[r:],
            exchange,
            finder.gaps,
            None,
            profile=profile.suffix(r),
            prune=None if context is None else context.gate_for(r),
        )
        for r in splits
    ]
    return problems, sum(p.cells for p in problems)


def _fill_seconds(
    engine, group: int, sequence: Sequence, finder: RepeatFinder, gated: bool
) -> tuple[float, int]:
    """Median seconds to fill the fixed split set in batches of ``group``."""
    samples = []
    for _ in range(5):
        # Gates are per-fill state: fresh problems for every repetition.
        problems, cells = _kernel_problems(sequence, finder, gated)
        started = time.perf_counter()
        for i in range(0, len(problems), group):
            batch = problems[i : i + group]
            if group == 1:
                engine.last_row(batch[0])
            else:
                engine.last_rows_batch(batch)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples), cells


def align_metrics(sequence: Sequence, finder: RepeatFinder) -> dict[str, float]:
    out: dict[str, float] = {}
    exchange = finder.resolve_exchange(sequence)
    out["align.profile_build_s"] = timed(lambda: QueryProfile(sequence.codes, exchange))
    profile = QueryProfile(sequence.codes, exchange)
    out["align.prune_tables_s"] = timed(lambda: PruneContext(profile))

    kernels = {
        "vector_g1": (VectorEngine(), 1),
        "lanes_g4": (LanesEngine(lanes=4), 4),
        "lanes_g8": (LanesEngine(lanes=8), 8),
        "lanes_g8_int16": (LanesEngine(lanes=8, dtype="int16"), 8),
    }
    ungated: dict[str, float] = {}
    for name, (engine, group) in kernels.items():
        seconds, cells = _fill_seconds(engine, group, sequence, finder, gated=False)
        ungated[name] = seconds
        out[f"align.kernel.{name}.cells_per_s"] = cells / seconds
    for name in ("vector_g1", "lanes_g8"):
        engine, group = kernels[name]
        seconds, _ = _fill_seconds(engine, group, sequence, finder, gated=True)
        out[f"align.gate_overhead.{name}"] = seconds / ungated[name]

    problems, _ = _kernel_problems(sequence, finder, gated=False)
    middle = problems[0]
    _, row = next(iter(iter_rows(middle)))
    out["align.kernel.bytes_per_cell_computed"] = float(
        ARRAY_PASSES_PER_CELL * row.dtype.itemsize
    )
    out["align.traceback.full_matrix_s"] = timed(lambda: full_matrix(middle), 3)
    matrix = full_matrix(middle)
    end_x = int(np.argmax(matrix[-1]))
    out["align.traceback.path_s"] = timed(
        lambda: traceback(middle, matrix, middle.rows, end_x)
    )
    return out


def index_metrics(
    sequences: list[Sequence],
    finder: RepeatFinder,
    tops: dict[str, list[tuple[int, float]]],
    workdir: Path,
) -> dict[str, float]:
    """``tops`` maps record id to the accepted ``(r, score)`` of a default
    pass; seed tightness is the seed bound over the score it bounded."""
    config = IndexConfig()
    params = config.profile_params()
    build = [timed(lambda s=s: build_profile(s, **params), 3) for s in sequences]
    profiles = [build_profile(s, **params) for s in sequences]
    pairs = list(zip(sequences, profiles))
    routes = [
        classify(
            p, finder.resolve_exchange(s), min_score=finder.min_score, config=config
        ).route
        for s, p in pairs
    ]
    tightness = []
    for s in sequences:
        bounds = seed_score_bounds(s, finder.resolve_exchange(s))
        tightness.extend(bounds[r - 1] / score for r, score in tops.get(s.id, []))
    classify_s = [
        timed(
            lambda s=s, p=p: classify(
                p, finder.resolve_exchange(s), min_score=finder.min_score, config=config
            ),
            3,
        )
        for s, p in pairs
    ]
    bounds_s = [
        timed(lambda s=s: seed_score_bounds(s, finder.resolve_exchange(s)), 3)
        for s in sequences
    ]
    with tempfile.TemporaryDirectory(prefix="index-probe-", dir=workdir) as root:
        writer = IndexStore(root)
        write_s = []
        for s, p in pairs:
            started = time.perf_counter()
            writer.store(s, config, p)
            write_s.append(time.perf_counter() - started)
        # A second store on the same root has a cold memory layer, so
        # load() reads the artifact from disk.
        reader = IndexStore(root)
        read_s = []
        for s in sequences:
            started = time.perf_counter()
            loaded = reader.load(s, config)
            read_s.append(time.perf_counter() - started)
            if loaded is None:
                raise RuntimeError(f"index store lost the profile of {s.id}")
    return {
        "index.build_residues_per_s": sum(len(s) for s in sequences) / sum(build),
        "index.classify_s": statistics.median(classify_s),
        "index.seed_bounds_s": statistics.median(bounds_s),
        "index.store_write_s": statistics.median(write_s),
        "index.store_read_s": statistics.median(read_s),
        "index.route_skip_share": routes.count("skip") / len(routes),
        "index.route_full_share": routes.count("full") / len(routes),
        "index.seed_tightness": statistics.fmean(tightness) if tightness else 0.0,
    }


def service_store_metrics(
    spec: dict[str, Any], payload: dict[str, Any], workdir: Path
) -> dict[str, float]:
    """``job_digest`` and the three durable stores on a temp dir."""
    job_spec = JobSpec.from_dict(spec)
    digest = job_digest(job_spec)
    out = {"service.digest_s": timed(lambda: job_digest(job_spec))}
    with tempfile.TemporaryDirectory(prefix="stores-probe-", dir=workdir) as root:
        queue = SpoolQueue(Path(root) / "spool")
        counter = iter(range(1_000_000))

        def spool_roundtrip() -> None:
            queue.submit(f"job{next(counter):06d}")
            if queue.claim() is None:
                raise RuntimeError("spool lost a job marker")

        out["service.spool_roundtrip_s"] = timed(spool_roundtrip, 9)
        cache = ResultCache(Path(root) / "results")
        digests = iter(f"{i:02x}{digest[2:]}" for i in range(256))
        written: list[str] = []

        def cache_put() -> None:
            written.append(next(digests))
            cache.put(written[-1], payload)

        out["service.cache_put_s"] = timed(cache_put, 9)
        # A second cache on the same root: the disk read a worker's
        # result costs the server, not the writer's memory layer.
        reader = ResultCache(Path(root) / "results")
        to_read = iter(written)

        def cache_get() -> None:
            if reader.get(next(to_read)) is None:
                raise RuntimeError("result cache lost a payload")

        out["service.cache_get_s"] = timed(cache_get, 9)
        store = JobStore(Path(root) / "jobs")
        record = store.new_job(spec, digest)
        out["service.jobstore_update_s"] = timed(
            lambda: store.update(record.id, state="running"), 9
        )
    return out


def cli_metrics(
    fasta_small: str, alphabet: str, workdir: Path, repeat: int
) -> dict[str, float]:
    """Fresh-interpreter costs every CLI user pays."""
    env = program_env()

    def run(args: list[str]) -> None:
        subprocess.run(
            [sys.executable, *args], env=env, check=True, stdout=subprocess.DEVNULL
        )

    with tempfile.TemporaryDirectory(prefix="cli-probe-", dir=workdir) as root:
        path = Path(root) / "small.fasta"
        path.write_text(fasta_small, encoding="utf-8")
        return {
            "cli.import_s": timed(lambda: run(["-c", "import repro.cli"]), repeat),
            "cli.find_small_s": timed(
                lambda: run(
                    ["-m", "repro", "find", str(path), "-k", "3", "--alphabet", alphabet]
                ),
                repeat,
            ),
        }


def probe(
    fasta: str,
    scoring: Scoring,
    reports: list[SequenceReport],
    workdir: Path,
    cli_repeat: int,
) -> dict[str, float]:
    """Every direct-call metric for one workload's inputs; ``reports``
    are a default in-process pass over the same ``fasta``."""
    alphabet = alphabet_for(scoring.alphabet)
    sequences = parse_fasta_text(fasta, scoring.alphabet)
    finder = RepeatFinder(**scoring.finder_kwargs())
    longest = max(sequences, key=len)
    out = {"sequences.fasta_parse_s": timed(lambda: parse_fasta_text(fasta, scoring.alphabet))}
    if scoring.alphabet == "protein":
        # blosum62() is cached for the life of the process; the wrapped
        # function is the build every fresh process pays once.
        out["scoring.exchange_build_s"] = timed(blosum62.__wrapped__)
    else:
        out["scoring.exchange_build_s"] = timed(
            lambda: match_mismatch(alphabet, 2.0, -1.0)
        )
    out.update(align_metrics(longest, finder))
    tops = {
        report.id: [(a.r, a.score) for a in report.result.top_alignments]
        for report in reports
        if report.result is not None
    }
    out.update(index_metrics(sequences, finder, tops, workdir))
    first = sequences[0]
    spec = scoring.job_spec(first.id, first.text)
    job_spec = JobSpec.from_dict(spec)
    sample = next(r.result for r in reports if r.result is not None)
    payload = result_to_dict(sample, digest=job_digest(job_spec), spec=job_spec)
    out.update(service_store_metrics(spec, payload, workdir))
    small = f">small\n{longest.text[:100]}\n"
    out.update(cli_metrics(small, scoring.alphabet, workdir, cli_repeat))
    return out
