"""The in-process path: FASTA text in, JSON + GFF3 + profile + HTML out.

Everything here goes through the program's public entry points —
``parse_fasta_text`` → ``DatabaseScanner.scan`` → ``scan_to_payload`` +
``json.dumps`` → ``annot.annotate_scan`` → ``.gff3()/.profile_json()/
.html()`` — with default knobs unless a :class:`Knobs` says otherwise.

Tracing is injected through constructor parameters the program already
has: a delegating :class:`AlignmentEngine` passed as ``engine=``, a
:class:`RepeatFinder` subclass timing ``find``/``delineate`` and an
:class:`IndexStore` subclass timing ``build_or_load``.  Untraced passes
use none of them.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.align import AlignmentEngine, get_engine
from repro.annot import annotate_scan
from repro.core.api import RepeatFinder
from repro.core.scan import DatabaseScanner, SequenceReport, scan_to_payload
from repro.index import IndexConfig, IndexStore
from repro.scoring.gaps import GapPenalties
from repro.sequences.fasta import parse_fasta_text
from spans import Tracer


@dataclass(frozen=True)
class Scoring:
    """The result-affecting configuration of one workload."""

    alphabet: str
    gap_open: float
    gap_extend: float
    top_alignments: int
    min_score: float
    index: bool

    def finder_kwargs(self) -> dict[str, Any]:
        return {
            "gaps": GapPenalties(self.gap_open, self.gap_extend),
            "top_alignments": self.top_alignments,
            "min_score": self.min_score,
        }

    def job_spec(self, seq_id: str, sequence: str) -> dict[str, Any]:
        """The same configuration as a service/cluster job spec."""
        return {
            "sequence": sequence,
            "seq_id": seq_id,
            "alphabet": self.alphabet,
            "top_alignments": self.top_alignments,
            "gap_open": self.gap_open,
            "gap_extend": self.gap_extend,
            "min_score": self.min_score,
        }


@dataclass(frozen=True)
class Knobs:
    """Execution knobs; ``None`` keeps the program's (or workload's) default."""

    engine: str | None = None
    group: int | None = None
    prune: bool | None = None
    index: bool | None = None

    def finder_kwargs(self) -> dict[str, Any]:
        pairs = (("engine", self.engine), ("group", self.group), ("prune", self.prune))
        return {key: value for key, value in pairs if value is not None}


DEFAULT = Knobs()
#: The reference configuration: pruning, index and batching all off.
REFERENCE = Knobs(group=1, prune=False, index=False)
#: One pass per setting, each divided by the default pass (ROADMAP item 1:
#: "default config is within 10 % of the best knob setting").
LATTICE = {
    "vector_noprune": Knobs(prune=False),
    "lanes_g8": Knobs(engine="lanes", group=8),
    "lanes_g8_noprune": Knobs(engine="lanes", group=8, prune=False),
    "noindex": Knobs(index=False),
}


class TracedEngine(AlignmentEngine):
    """Delegates to ``inner``, recording one span and the cells per call."""

    def __init__(self, inner: AlignmentEngine, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name
        self.calls = 0
        self.cells = 0

    def describe(self) -> str:
        return self.inner.describe()

    def _count(self, problem) -> None:
        # Same rule core.topalign applies to RunStats.cells: a pruned
        # fill counts only the rows it evaluated.
        gate = problem.prune
        if gate is not None and gate.pruned:
            self.cells += gate.cells_filled
        else:
            self.cells += problem.cells

    def last_row(self, problem):
        span = self.tracer.open("align.engine")
        try:
            return self.inner.last_row(problem)
        finally:
            self.tracer.close(span)
            self.calls += 1
            self._count(problem)

    def last_rows_batch(self, problems):
        span = self.tracer.open("align.engine")
        try:
            return self.inner.last_rows_batch(problems)
        finally:
            self.tracer.close(span)
            self.calls += 1
            for problem in problems:
                self._count(problem)


@dataclass
class TracedFinder(RepeatFinder):
    tracer: Tracer | None = None

    def find(self, sequence, *, seed_bounds=None):
        with self.tracer.span("core.find"):
            return super().find(sequence, seed_bounds=seed_bounds)

    def delineate(self, alignments, length):
        with self.tracer.span("core.delineate"):
            return super().delineate(alignments, length)


class TracedStore(IndexStore):
    def __init__(self, root, tracer: Tracer) -> None:
        super().__init__(root)
        self.tracer = tracer

    def build_or_load(self, sequence, config):
        with self.tracer.span("index.build_or_load"):
            return super().build_or_load(sequence, config)


@dataclass
class PassOutput:
    wall: float
    reports: list[SequenceReport]
    document: str
    gff3: str
    profile: str
    html: str
    index_stats: dict[str, Any]
    #: The delegating engine of a traced pass (its call and cell counts).
    engine: TracedEngine | None = None


class Pipeline:
    """One configured FASTA→report pipeline; :meth:`run` is one pass.

    The finder (engine instance, exchange cache) is built once, as a
    long-lived caller would; the index store is cold on every pass.
    """

    def __init__(
        self,
        scoring: Scoring,
        workdir: Path,
        knobs: Knobs = DEFAULT,
        tracer: Tracer | None = None,
        root: str = "pass",
    ) -> None:
        self.scoring = scoring
        self.workdir = workdir
        self.tracer = tracer
        self.root = root
        self.index = scoring.index if knobs.index is None else knobs.index
        kwargs = {**scoring.finder_kwargs(), **knobs.finder_kwargs()}
        self.engine: TracedEngine | None = None
        if tracer is None:
            self.finder = RepeatFinder(**kwargs)
        else:
            name = kwargs.pop("engine", RepeatFinder().engine)
            self.engine = TracedEngine(get_engine(name), tracer)
            self.finder = TracedFinder(**kwargs, engine=self.engine, tracer=tracer)

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def run(self, fasta: str) -> PassOutput:
        if not self.index:
            return self._run(fasta, None)
        store_dir = tempfile.mkdtemp(prefix="index-", dir=self.workdir)
        try:
            return self._run(fasta, store_dir)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)

    def _run(self, fasta: str, store_dir: str | None) -> PassOutput:
        span = self._span
        alphabet = self.scoring.alphabet
        started = time.perf_counter()
        with span(self.root):
            with span("sequences.parse"):
                sequences = parse_fasta_text(fasta, alphabet)
            store = None
            if store_dir is not None:
                store = (
                    IndexStore(store_dir)
                    if self.tracer is None
                    else TracedStore(store_dir, self.tracer)
                )
            scanner = DatabaseScanner(
                finder=self.finder,
                index=IndexConfig() if self.index else None,
                index_store=store,
            )
            with span("core.scan"):
                reports = scanner.scan(sequences)
            with span("core.serialise"):
                document = json.dumps(
                    scan_to_payload(
                        reports,
                        sequences,
                        alphabet=alphabet,
                        index_stats=scanner.index_stats,
                    )
                )
            with span("annot.annotate"):
                annotation = annotate_scan(reports, sequences)
            with span("annot.gff3"):
                gff3 = annotation.gff3()
            with span("annot.profile"):
                profile = annotation.profile_json()
            with span("annot.html"):
                html = annotation.html()
        wall = time.perf_counter() - started
        return PassOutput(
            wall, reports, document, gff3, profile, html, dict(scanner.index_stats),
            self.engine,
        )
