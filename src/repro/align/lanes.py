"""Batched lane engine — the paper's coarse-grained SIMD technique (§4.1).

Instead of vectorising *inside* one matrix (hard, because of the
``MaxX`` dependency), the paper computes 4 (SSE) or 8 (SSE2)
*neighbouring* matrices in lockstep (Figure 7).  This engine reproduces
that design with numpy: a group of G alignment problems is evaluated
together by the one row step of :mod:`repro.align.rowstep`, one numpy
call per recurrence step for all lanes at once, so the interpreter
overhead of a row is paid once per group instead of once per matrix.
It is the default engine (``DEFAULT_ENGINE``), fed batches of
``DEFAULT_GROUP`` stale tasks, or ``OWED_LANES`` first passes, by the
best-first driver.

**Layout and packing.**  Figure 7 interleaves the G lane values of one
cell because an SSE register holds exactly G shorts and no padding is
ever computed twice.  numpy's "register" is the whole working row, and
its cost per row is a fixed interpreter overhead plus a per-element
cost over the *padded rectangle* ``lanes x max_cols`` — for every row
up to ``max_rows``.  A literal interleave of whatever G problems the
heap yields therefore pays for a ``max_rows x max_cols`` rectangle per
lane: a 20x380 split next to a 380x20 one fills 19x the cells either
needs.  So this engine keeps each lane's row contiguous (working rows
are ``(lanes, columns)`` grids: the prefix-max scan and the per-lane
row maximum are unit-stride), sorts a batch by the rows each lane steps
(a realignment that resumes from a saved row steps only those below it;
:mod:`repro.align.rowstep`) and cuts it into *shape-compatible
sub-batches*, contiguous in that order, minimising the modelled cost
``sum(rows_stepped * (ROW_OVERHEAD + max_cols * lanes))`` with no row
wider than ``MAX_ROW_CELLS`` cells — neighbouring
splits share a sub-batch, a left-edge and a right-edge split do not, a
64-lane first-pass chunk of a 400-residue search becomes a handful of
~20-lane sub-batches; a batch of one is simply a one-lane sub-batch.

Each lane processes its own matrix in its own local coordinates; cells
outside a smaller lane's own rows and columns never contaminate valid
ones because data dependencies flow left-to-right and top-to-bottom
(the paper's "corrections for the left and bottom borders").

Per sub-batch: **one work type** — ``dtype`` is the *requested* one
(``int32`` by default, ``int16`` the paper's shorts, ``float64`` the
conformance mode), promoted to the narrowest that is exact for the
sub-batch's score bound (:func:`~repro.align.rowstep.work_dtype`), so
nothing saturates and nothing reruns; **one scratch block** per thread,
grown to the widest sub-batch seen (``MAX_ROW_CELLS`` bounds it); **one
reduction per harvested row** — a batch of block problems
(:mod:`repro.align.pruning`) leaves every lane's row maxima on its
:class:`~repro.align.pruning.PruneGate`; a batch without requests runs
the bare row step, and no fill is ever cut short.  The rows a resume
request gets back are copied out of the row step into an array of their
own, never into the scratch block.
"""

from __future__ import annotations

import threading

import numpy as np

from ..obs import get_registry
from .base import AlignmentEngine, AlignmentProblem
from .profile import NEG
from .rowstep import WIDTHS, lockstep_rows, same_scoring, work_dtype

__all__ = ["LanesEngine"]

#: Lane-occupancy histogram boundaries: group widths around the paper's
#: SSE (4) and SSE2 (8) configurations, up to ``OWED_LANES``.
_OCCUPANCY_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 32.0, 64.0)

#: Fixed cost of one lockstep row (ten numpy calls) in units of one
#: cell's per-element cost (mostly the scalar ``maximum.accumulate``) —
#: what :func:`_partition` trades against padding.  Measured here at
#: ~4 us per row against ~4 ns per cell (three fits: 3.5-4.1 us,
#: 3.9-4.2 ns): best-of-9 seconds per row of ``LanesEngine()._fill`` on
#: G = 1, 2, 4, 8, 16 and 32 neighbouring splits around r = 200, 250,
#: 300 and 350 of a 400-residue protein; the slope of a line through
#: all 24 points over ``G * (cols + 1)`` is the cell cost, the intercept
#: the fixed cost, their quotient this constant.
ROW_OVERHEAD = 1000

#: Most cells (``lanes * width``) one lockstep row may hold.  Width
#: amortises ``ROW_OVERHEAD``, but the scratch block (8 work rows) and
#: the per-residue gather cache of
#: :func:`~repro.align.rowstep.lockstep_rows` (one grid per alphabet
#: letter) grow with every cell, ~120 B per cell for a protein.  A
#: 400-residue search ran 5-9 % slower at 2048 and no faster at 8192
#: (40 alternating in-process pairs each).  The bound is also what makes
#: :func:`_partition` linear.
MAX_ROW_CELLS = 4096

#: Problems a scheduler should offer per batch when the work is owed
#: whatever the order (first passes): enough for the packer to fill
#: ``MAX_ROW_CELLS`` rows from neighbouring shapes several times over,
#: few enough that a first pass is still several batches for threads or
#: slaves to share.
OWED_LANES = 64

#: Neighbouring splits one block problem bounds
#: (:mod:`repro.align.pruning`).  Wider blocks are fewer fills but
#: looser bounds: a block's rows see every column from its first split
#: on.  Measured over the benchmark records (EXPERIMENTS.md, PR 24):
#: cells of a whole search, blocks included, at 16 / 32 / 64.
BLOCK_SPLITS = 32


def _partition(shapes: list[tuple[int, int, int]]) -> list[int]:
    """Cut ``(top, rows, cols)`` shapes into sub-batches.

    ``shapes`` come ascending in the rows a lane steps, ``rows - top``
    (``top`` is the last row it may skip, its resume row).  Returns the
    end index of every sub-batch of the cheapest contiguous partition
    under ``(max_rows - min_top) * (ROW_OVERHEAD + max_cols * lanes)`` —
    a sub-batch steps from its earliest lane's start to its deepest
    lane's bottom — among those whose rows hold at most
    ``MAX_ROW_CELLS`` cells (a lane wider than that runs alone).  The
    bound ends the look-back, so the work is linear in ``len(shapes)``.
    """
    n = len(shapes)
    best = [0.0] * (n + 1)
    cut = [0] * (n + 1)
    for stop in range(1, n + 1):
        first, deepest, widest = shapes[stop - 1]
        start = stop - 1
        best[stop] = best[start] + (deepest - first) * (ROW_OVERHEAD + widest)
        cut[stop] = start
        while start:
            start -= 1
            top, rows, cols = shapes[start]
            if cols > widest:
                widest = cols
            if (widest + 1) * (stop - start) > MAX_ROW_CELLS:
                break
            if top < first:
                first = top
            if rows > deepest:
                deepest = rows
            cost = best[start] + (deepest - first) * (
                ROW_OVERHEAD + widest * (stop - start)
            )
            if cost < best[stop]:
                best[stop], cut[stop] = cost, start
    ends = []
    while n:
        ends.append(n)
        n = cut[n]
    return ends[::-1]


class LanesEngine(AlignmentEngine):
    """Lockstep evaluation of a group of alignment problems.

    Parameters
    ----------
    lanes:
        Preferred group width (4 for "SSE", 8 for "SSE2").  Groups of
        any size are accepted; this is the width schedulers should aim
        for.
    dtype:
        Requested work type: ``"int32"`` (default), ``"int16"`` or
        ``"float64"``; each sub-batch is promoted as far as exactness
        needs (:func:`~repro.align.rowstep.work_dtype`).
    """

    name = "lanes"

    def __init__(self, lanes: int = 4, dtype: str = "int32") -> None:
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        if dtype not in NEG:
            raise ValueError(f"dtype must be one of {sorted(NEG)}")
        self.lanes = lanes
        self.dtype = dtype
        #: Widest work type any fill of this engine has needed so far —
        #: over the engine's lifetime, not per search: an instance reused
        #: across finds (``RepeatFinder``) or shared by threads keeps the
        #: widest it has seen, and only ever widens.
        self.used = dtype
        # The scratch block is mutable shared state; keep one per thread
        # so the threaded runner's workers never race on it.
        self._tls = threading.local()

    def __repr__(self) -> str:
        return f"LanesEngine(lanes={self.lanes}, dtype={self.dtype!r})"

    def describe(self) -> str:
        """``lanes[<work type>]``: the widest type any fill of this
        engine has run in so far (the requested one until a sub-batch
        needed a wider; see :attr:`used`)."""
        return f"{self.name}[{self.used}]"

    # -- single problem (interface compliance) ---------------------------

    def last_row(self, problem: AlignmentProblem) -> np.ndarray:
        return self.last_rows_batch([problem])[0]

    # -- the lockstep batch ----------------------------------------------

    def last_rows_batch(self, problems: list[AlignmentProblem]) -> list[np.ndarray]:
        """Bottom rows of all problems, computed in lockstep.

        All problems must share the same gap penalties and exchange
        matrix (true for the top-alignment workload, where neighbouring
        matrices split the same sequence).  Any mix of shapes is
        accepted; the batch is packed as the module docstring describes
        and rows come back in input order.
        """
        if not problems:
            return []
        registry = get_registry()
        if registry.collecting:
            registry.histogram(
                "repro_lane_occupancy",
                buckets=_OCCUPANCY_BUCKETS,
                help="Problems per lockstep lane batch",
            ).observe(len(problems))
        same_scoring(problems)

        results: list[np.ndarray | None] = [None] * len(problems)
        live = []
        for i, p in enumerate(problems):
            if p.rows == 0 or p.cols == 0:
                results[i] = np.zeros(p.cols + 1, dtype=np.float64)
            else:
                live.append(i)
        live.sort(key=lambda i: problems[i].rows - problems[i].resume_row)
        start = 0
        shapes = [(p.resume_row, p.rows, p.cols) for p in (problems[i] for i in live)]
        for stop in _partition(shapes):
            members = live[start:stop]
            start = stop
            rows = self._fill([problems[i] for i in members])
            for i, row in zip(members, rows):
                results[i] = row
        return results

    def _scratch(self, count: int, cells: int, dtype: str) -> np.ndarray:
        """``count`` buffers of ``cells`` values from the thread's one block."""
        need = count * cells
        words = -(-need * np.dtype(dtype).itemsize // 8)
        block: np.ndarray | None = getattr(self._tls, "block", None)
        if block is None or block.size < words:
            # 8-byte words, grown to the widest batch seen and viewed as
            # whichever work type a sub-batch runs in.
            block = np.empty(words, dtype=np.float64)
            self._tls.block = block
        return block[:words].view(dtype)[:need].reshape(count, cells)

    def _fill(self, problems: list[AlignmentProblem]) -> list[np.ndarray]:
        """One shape-compatible sub-batch, none empty."""
        group = len(problems)
        rows_l = [p.rows for p in problems]
        cols_l = [p.cols for p in problems]
        max_rows = max(rows_l)
        dtype = work_dtype(self.dtype, problems[0], max_rows, max(cols_l))
        if WIDTHS.index(dtype) > WIDTHS.index(self.used):
            self.used = dtype

        results: list[np.ndarray | None] = [None] * group
        done_at: dict[int, list[int]] = {}
        for g, rows in enumerate(rows_l):
            done_at.setdefault(rows, []).append(g)

        # Harvest requests (repro.align.pruning): from the first wanted
        # row on, one reduction per row takes every lane's row maximum.
        # Cells outside a lane's own columns hold the floor, so a grid
        # row's maximum per lane is the lane's true row maximum.
        gates = [(g, p.prune) for g, p in enumerate(problems) if p.prune is not None]
        if gates:
            first = min(gate.first for _, gate in gates)
            maxima = np.zeros((max_rows + 1 - first, group), dtype=dtype)
            floors = np.zeros((max_rows + 1 - first, 1), dtype=dtype)

        for y, row, floor in lockstep_rows(problems, dtype, self._scratch):
            for g in done_at.get(y, ()):
                results[g] = np.subtract(row[g, : cols_l[g] + 1], floor, dtype=np.float64)
            if gates and y >= first:
                np.maximum.reduce(row, 1, None, maxima[y - first])
                floors[y - first] = floor

        if gates:
            bounds = np.subtract(maxima, floors, dtype=np.float64)
            for g, gate in gates:
                gate.bounds = bounds[gate.first - first : gate.stop - first, g]
        return results
