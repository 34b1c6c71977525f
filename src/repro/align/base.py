"""Alignment engine interface.

An *engine* evaluates the paper's Equation 1 / Figure 3 recurrence for
one (or, for the lane engine, several) pairwise local alignments.  The
three concrete engines mirror the paper's instruction-set tiers:

=================  =====================================================
``scalar``         pure-Python reference — the "conventional
                   instruction set" baseline of Table 2
``vector``         numpy row-vectorised — one matrix, each row computed
                   with O(1) array operations (the per-row running
                   maximum ``MaxX`` becomes a prefix-max scan)
``lanes``          batched — G neighbouring matrices computed in
                   lockstep with lane-interleaved entries, the paper's
                   coarse-grained SSE/SSE2 technique (§4.1, Figures 6–7)
=================  =====================================================

Engines only ever *score*; traceback lives in
:mod:`repro.align.traceback` and operates on a full matrix produced by
:func:`repro.align.matrix.full_matrix`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ..scoring.exchange import ExchangeMatrix
from ..scoring.gaps import GapPenalties
from ..sequences.sequence import Sequence
from .profile import ProfileView
from .pruning import PruneGate

__all__ = [
    "DEFAULT_ENGINE",
    "DEFAULT_GROUP",
    "NEG_INF",
    "OverrideProvider",
    "Resume",
    "AlignmentProblem",
    "AlignmentEngine",
    "ENGINE_NAMES",
    "get_engine",
]

#: The default execution configuration of every entry point
#: (``RepeatFinder``, ``find_top_alignments``, ``TopAlignmentSession``,
#: ``JobSpec``, ``load_checkpoint``, the CLI): the lockstep lane engine
#: fed batches of eight stale tasks — the paper's SSE2 grain (§4.1) on
#: top of its best-first queue (§3).  Paper-figure code (``parallel/``,
#: ``simulate/``, ``bench/harness.py``) names its engines explicitly.
DEFAULT_ENGINE = "lanes"
DEFAULT_GROUP = 8

#: Sentinel for "no gap possible yet" in the running maxima.  Matrix
#: values are always >= 0, so any sufficiently negative value works:
#: -inf here, a bounded negative integer per work type in the lockstep
#: row step (``repro.align.profile.NEG``).
NEG_INF = float("-inf")


class OverrideProvider(Protocol):
    """Supplies the per-row override mask of the paper's override triangle.

    ``row_mask(y)`` returns, for the local matrix row ``y`` (1-based), a
    boolean array over the local columns ``1..cols`` where ``True``
    forces the corresponding matrix entry to zero — or ``None`` when no
    entry of that row is overridden (the overwhelmingly common case,
    since the triangle is sparse).  A provider that is a window onto a
    triangle over the whole query may also expose ``triangle`` (with
    ``m`` and ``row_flags(i)``: the boolean row over global columns
    ``0..m``, or ``None``) and its column offset ``r``; when every
    overridden lane of a lockstep batch windows the same triangle, the
    row step masks the shared profile row once instead of calling each
    lane per row.
    """

    def row_mask(self, y: int) -> np.ndarray | None: ...


class Resume:
    """A request to fill a matrix from row ``start + 1`` on.

    ``saved`` holds the fill's state after row ``start`` over the local
    columns ``1..cols`` as a ``(2, cols)`` array: the row in row-shifted
    coordinates and the column running maximum
    (:mod:`repro.align.rowstep`) — ``None`` when ``start`` is 0,
    a fill from the top.  An engine that honours the request fills rows
    ``start + 1..rows`` only and leaves in :attr:`snapshots` the same two
    vectors of every ``SNAPSHOT_ROWS``-th row between ``start`` and the
    bottom row, an ``(n, 2, cols)`` array; an engine that ignores it
    fills every row and leaves ``None`` (resuming is an optimisation,
    never a correctness requirement).  DESIGN.md, "Resuming a
    realignment", says which rows a caller may skip.
    """

    __slots__ = ("start", "saved", "snapshots")

    def __init__(self, start: int = 0, saved: np.ndarray | None = None) -> None:
        self.start = start
        self.saved = saved
        self.snapshots: np.ndarray | None = None


@dataclass(frozen=True)
class AlignmentProblem:
    """One local-alignment instance: two code arrays plus scoring model.

    ``seq1`` runs vertically (matrix rows ``y = 1..len(seq1)``), ``seq2``
    horizontally (columns ``x = 1..len(seq2)``), matching Figure 2.  The
    optional ``override`` masks entries contained in previously accepted
    top alignments.  The optional ``profile`` is a precomputed
    substitution gather for ``seq2`` (see :mod:`repro.align.profile`);
    engines that honour it slice views instead of re-gathering
    ``exchange.scores[:, seq2]`` on every call.  The optional ``prune``
    gate (see :mod:`repro.align.pruning`) asks the engine to also leave
    the maxima of some matrix rows on the gate — the exact bounds of a
    block of splits; an engine that ignores it just returns the bottom
    row (bounds are an optimisation, never a correctness requirement).
    The optional ``resume`` request (:class:`Resume`) lets an engine
    skip the rows above a saved one and asks it for saved rows back.
    """

    seq1: np.ndarray
    seq2: np.ndarray
    exchange: ExchangeMatrix
    gaps: GapPenalties
    override: OverrideProvider | None = None
    profile: ProfileView | None = None
    prune: PruneGate | None = None
    resume: Resume | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "seq1", np.ascontiguousarray(self.seq1, dtype=np.int8))
        object.__setattr__(self, "seq2", np.ascontiguousarray(self.seq2, dtype=np.int8))
        if self.profile is not None and self.profile.cols != self.seq2.size:
            raise ValueError(
                f"profile window spans {self.profile.cols} columns but seq2 "
                f"has {self.seq2.size}"
            )
        resume = self.resume
        if resume is not None and resume.start and not (
            resume.start < self.rows
            and resume.saved is not None
            and resume.saved.shape == (2, self.seq2.size)
        ):
            raise ValueError(
                f"resume row {resume.start} needs (2, {self.seq2.size}) saved "
                f"vectors and a row below it (the matrix has {self.rows})"
            )

    def substitution_rows(self) -> np.ndarray:
        """``(n_symbols, cols)`` float64 substitution scores for ``seq2``.

        A zero-copy profile view when the problem carries one, otherwise
        the classic per-call fancy-index gather.
        """
        if self.profile is not None:
            return self.profile.scores
        return self.exchange.scores[:, self.seq2.astype(np.int64)]

    @classmethod
    def from_sequences(
        cls,
        seq1: Sequence | str,
        seq2: Sequence | str,
        exchange: ExchangeMatrix,
        gaps: GapPenalties = GapPenalties(),
        override: OverrideProvider | None = None,
    ) -> "AlignmentProblem":
        """Build a problem from :class:`Sequence` objects or raw text."""
        if isinstance(seq1, str):
            seq1 = Sequence(seq1, exchange.alphabet)
        if isinstance(seq2, str):
            seq2 = Sequence(seq2, exchange.alphabet)
        return cls(seq1.codes, seq2.codes, exchange, gaps, override)

    @property
    def rows(self) -> int:
        """Number of matrix rows (length of the vertical sequence)."""
        return self.seq1.size

    @property
    def cols(self) -> int:
        """Number of matrix columns (length of the horizontal sequence)."""
        return self.seq2.size

    @property
    def resume_row(self) -> int:
        """The last row a fill may skip: the resume request's, else 0."""
        return 0 if self.resume is None else self.resume.start

    @property
    def cells(self) -> int:
        """Cells filled — the unit of the engines' cost model: the whole
        matrix, less the skipped rows once an engine has honoured the
        resume request."""
        resume = self.resume
        if resume is not None and resume.snapshots is not None:
            return (self.rows - resume.start) * self.cols
        return self.rows * self.cols


class AlignmentEngine(ABC):
    """Computes Equation 1 scores for alignment problems."""

    #: Name in stats and reports; the table key for the three engines
    #: of :data:`ENGINE_NAMES`.
    name: str = "abstract"

    def describe(self) -> str:
        """Configuration tag for stats/bench attribution (default: name)."""
        return self.name

    @abstractmethod
    def last_row(self, problem: AlignmentProblem) -> np.ndarray:
        """The bottom matrix row ``M[rows, 0..cols]`` as float64.

        Index 0 is the boundary column (always 0).  Only the bottom row
        is needed to locate top alignments (Appendix A), which is what
        makes the O(n²)-space algorithm possible.
        """

    def score(self, problem: AlignmentProblem) -> float:
        """Best bottom-row score (the task score used by the queue)."""
        return float(self.last_row(problem).max())

    def last_rows_batch(self, problems: list[AlignmentProblem]) -> list[np.ndarray]:
        """Bottom rows for several problems.

        The default loops; the lane engine overrides this with a true
        lockstep batch.
        """
        return [self.last_row(p) for p in problems]


#: The closed engine table: the three tiers of the module docstring.
#: Every surface that takes an engine name (``get_engine``,
#: ``RepeatFinder.engine``, ``JobSpec.engine``, each ``--engine`` flag)
#: accepts exactly these.
ENGINE_NAMES = ("scalar", "vector", "lanes")


def get_engine(name: str | AlignmentEngine = DEFAULT_ENGINE) -> AlignmentEngine:
    """Instantiate an engine of the closed table, or pass an instance through."""
    if isinstance(name, AlignmentEngine):
        return name
    # The engine modules import this one, hence the late imports.
    from .lanes import LanesEngine
    from .scalar import ScalarEngine
    from .vector import VectorEngine

    table = {"scalar": ScalarEngine, "vector": VectorEngine, "lanes": LanesEngine}
    if name not in table:
        raise KeyError(f"unknown engine {name!r}; available: {ENGINE_NAMES}")
    return table[name]()
