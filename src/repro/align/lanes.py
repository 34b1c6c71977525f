"""Batched lane engine — the paper's coarse-grained SIMD technique (§4.1).

Instead of vectorising *inside* one matrix (hard, because of the
``MaxX`` dependency), the paper computes 4 (SSE) or 8 (SSE2)
*neighbouring* matrices in lockstep (Figure 7).  This engine reproduces
that design with numpy: a group of G alignment problems is evaluated
together, one numpy call per recurrence step for all lanes at once, so
the interpreter overhead of a row is paid once per group instead of
once per matrix.  It is the default engine (``DEFAULT_ENGINE``), fed
batches of ``DEFAULT_GROUP`` tasks by the best-first driver.

**Layout and packing.**  Figure 7 interleaves the G lane values of one
cell because an SSE register holds exactly G shorts and no padding is
ever computed twice.  numpy's "register" is the whole working row, and
its cost per row is a fixed interpreter overhead plus a per-element
cost over the *padded rectangle* ``lanes x max_cols`` — for every row
up to ``max_rows``.  A literal interleave of whatever G problems the
heap yields therefore pays for a ``max_rows x max_cols`` rectangle per
lane: a 20x380 split next to a 380x20 one fills 19x the cells either
needs.  So this engine

* keeps each lane's row contiguous (working rows are shaped ``(lanes,
  columns)``), which makes the prefix-max scan and the per-lane row
  maximum unit-stride;
* sorts a batch by row count and cuts it into *shape-compatible
  sub-batches*, contiguous in that order, minimising the modelled cost
  ``sum(max_rows * (ROW_OVERHEAD + max_cols * lanes))`` — near-equal
  shapes (neighbouring splits) share a sub-batch, a left-edge and a
  right-edge split do not;
* runs a one-lane sub-batch through the row-vectorised kernel of
  :mod:`repro.align.vector` (float64 mode), so a batch of one costs
  what ``vector`` costs.

Each lane processes its own matrix in its own local coordinates; lanes
smaller than the sub-batch maximum ignore the padded garbage at their
right/bottom borders, which never contaminates valid cells because data
dependencies flow left-to-right and top-to-bottom (the paper's
"corrections for the left and bottom borders").

Per-call overheads amortised away on the batched hot path:

* **One shared query profile** — when every lane splits the same
  sequence (the top-alignment workload), row ``y`` has the same residue
  in every lane, so its exchange values are *one* row of the shared
  :class:`~repro.align.profile.QueryProfile` gathered at per-lane column
  offsets; nothing is copied per batch.  Unrelated problems fall back
  to a per-batch substitution table.
* **One scratch block** per thread, grown to the widest batch seen and
  carved into the working rows of each sub-batch.
* **One prune compare per row** — the lanes' :class:`PruneGate` cutoffs
  form a ``(rows, lanes)`` matrix (:meth:`PruneGate.lane_cutoffs`); a
  batch whose gates cannot fire runs ungated.

Three value modes mirror the instruction tiers:

* ``float64`` — exact, used for correctness tests;
* ``int32``   — exact integer mode ("wide" registers);
* ``int16``   — scores saturate at the signed-short maximum, the
  paper's SSE/SSE2 value range ("limiting" analogue of §4.1).
"""

from __future__ import annotations

import threading

import numpy as np

from ..obs import get_registry
from .base import AlignmentEngine, AlignmentProblem, OverrideProvider
from .pruning import PruneGate
from .vector import VectorEngine

__all__ = ["LanesEngine", "INT16_MAX"]

#: Lane-occupancy histogram boundaries: group widths around the paper's
#: SSE (4) and SSE2 (8) configurations.
_OCCUPANCY_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)

#: Saturation ceiling of the int16 mode (signed short, as in SSE ``pmaxsw``).
INT16_MAX = 32767

_NEG = {
    "float64": -np.inf,
    "int32": -(2**30),
    "int16": -(2**30),  # internal arithmetic is int64; only values saturate
}

#: Fixed cost of one lockstep row (a dozen numpy calls) in units of one
#: cell's per-element cost — what :func:`_partition` trades against
#: padding.  Measured here at ~8 µs per row against ~9 ns per cell.
ROW_OVERHEAD = 900

_VECTOR = VectorEngine()


def _partition(shapes: list[tuple[int, int]]) -> list[int]:
    """Cut row-sorted ``(rows, cols)`` shapes into sub-batches.

    Returns the end index of every sub-batch of the cheapest contiguous
    partition under ``max_rows * (ROW_OVERHEAD + max_cols * lanes)``
    (``shapes`` ascending in rows, so ``max_rows`` is the last member's).
    """
    n = len(shapes)
    best = [0.0] + [np.inf] * n
    cut = [0] * (n + 1)
    for stop in range(1, n + 1):
        rows = shapes[stop - 1][0]
        widest = 0
        for start in range(stop - 1, -1, -1):
            widest = max(widest, shapes[start][1])
            cost = best[start] + rows * (ROW_OVERHEAD + widest * (stop - start))
            if cost < best[stop]:
                best[stop], cut[stop] = cost, start
    ends = []
    while n:
        ends.append(n)
        n = cut[n]
    return ends[::-1]


def _row_masks(override: OverrideProvider, rows: int) -> dict[int, np.ndarray]:
    """The provider's non-empty row masks, gathered once per lane."""
    if hasattr(override, "row_masks"):
        return override.row_masks()
    masks = {y: override.row_mask(y) for y in range(1, rows + 1)}
    return {y: mask for y, mask in masks.items() if mask is not None}


class LanesEngine(AlignmentEngine):
    """Lockstep evaluation of a group of alignment problems.

    Parameters
    ----------
    lanes:
        Preferred group width (4 for "SSE", 8 for "SSE2").  Groups of
        any size are accepted; this is the width schedulers should aim
        for.
    dtype:
        ``"float64"`` (default), ``"int32"`` or ``"int16"`` (saturating).
    """

    name = "lanes"

    def __init__(self, lanes: int = 4, dtype: str = "float64") -> None:
        if lanes < 1:
            raise ValueError("lanes must be >= 1")
        if dtype not in _NEG:
            raise ValueError(f"dtype must be one of {sorted(_NEG)}")
        self.lanes = lanes
        self.dtype = dtype
        # The scratch block is mutable shared state; keep one per thread
        # so the threaded runner's workers never race on it.
        self._tls = threading.local()
        # Cached (registry, occupancy) instrument handle; revalidated
        # against the live registry each batch so tests that swap
        # registries see fresh instruments.
        self._obs_handles: tuple | None = None

    def _observe_occupancy(self, lanes: int) -> None:
        registry = get_registry()
        if not registry.collecting:
            return
        handles = self._obs_handles
        if handles is None or handles[0] is not registry:
            handles = (
                registry,
                registry.histogram(
                    "repro_lane_occupancy",
                    buckets=_OCCUPANCY_BUCKETS,
                    help="Problems per lockstep lane batch",
                ),
            )
            self._obs_handles = handles
        handles[1].observe(lanes)

    def __repr__(self) -> str:
        return f"LanesEngine(lanes={self.lanes}, dtype={self.dtype!r})"

    def describe(self) -> str:
        return f"{self.name}[{self.dtype}]"

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
        self._observe_occupancy(len(problems))
        gaps = problems[0].gaps
        exchange = problems[0].exchange
        for p in problems[1:]:
            if p.gaps != gaps:
                raise ValueError("lane group must share gap penalties")
            if p.exchange is not exchange and p.exchange.name != exchange.name:
                raise ValueError("lane group must share the exchange matrix")

        results: list[np.ndarray | None] = [None] * len(problems)
        live = []
        for i, p in enumerate(problems):
            if p.rows == 0 or p.cols == 0:
                results[i] = np.zeros(p.cols + 1, dtype=np.float64)
            else:
                live.append(i)
        live.sort(key=lambda i: problems[i].rows)
        start = 0
        for stop in _partition([(problems[i].rows, problems[i].cols) for i in live]):
            members = live[start:stop]
            start = stop
            if len(members) == 1 and self.dtype == "float64":
                results[members[0]] = _VECTOR.last_row(problems[members[0]])
                continue
            rows = self._fill([problems[i] for i in members])
            for i, row in zip(members, rows):
                results[i] = row
        return results

    def _scratch(self, count: int, cells: int) -> np.ndarray:
        """``count`` buffers of ``cells`` values from the thread's one block."""
        need = count * cells
        block: np.ndarray | None = getattr(self._tls, "block", None)
        if block is None or block.size < need:
            # float64 and int64 are both 8 bytes: one block serves every
            # value mode (and the int64 gather indices) through views.
            block = np.empty(need, dtype=np.float64)
            self._tls.block = block
        return block[:need].reshape(count, cells)

    def _fill(self, problems: list[AlignmentProblem]) -> list[np.ndarray]:
        """One shape-compatible sub-batch, rows ascending, none empty."""
        group = len(problems)
        rows_l = [p.rows for p in problems]
        cols_l = [p.cols for p in problems]
        max_rows, width = rows_l[-1], max(cols_l) + 1
        is_float = self.dtype == "float64"
        clamp = self.dtype == "int16"
        work = np.float64 if is_float else np.int64
        neg = _NEG[self.dtype]
        gaps = problems[0].gaps
        open_, ext = (gaps.open_, gaps.extend) if is_float else gaps.as_integers()

        # Working rows are (lanes, width) grids with column 0 the zero
        # boundary of Equation 1.  Each is carved with one leading slot,
        # so ``shifted(k)`` — the same memory one element earlier — is
        # the grid moved one column right (cell x reads cell x-1) while
        # staying contiguous, which numpy needs to run a whole grid as
        # one loop.  A lane's column 0 then reads its neighbour's last
        # cell: garbage that stays in column 0 (MaxY is per column, the
        # MaxX scan restarts at -inf there) and is zeroed every row.
        bufs = self._scratch(10, group * width + 1)
        bufs[:, 0] = 0
        index = bufs[:2].view(np.int64)
        if not is_float:
            bufs = bufs.view(np.int64)

        def grid(buffers: np.ndarray, k: int) -> np.ndarray:
            return buffers[k, 1:].reshape(group, width)

        def shifted(buffers: np.ndarray, k: int) -> np.ndarray:
            return buffers[k, :-1].reshape(group, width)

        idx, flat = grid(index, 0), grid(index, 1)
        bufs[2:4].fill(0)
        prev, curr = (grid(bufs, 2), shifted(bufs, 2)), (grid(bufs, 3), shifted(bufs, 3))
        b, b_left = grid(bufs, 4), shifted(bufs, 4)
        max_y, inner, tmp, erow, valid = (grid(bufs, k) for k in range(5, 10))
        max_y.fill(neg)
        x_dn = ext * np.arange(width, dtype=work)  # ext * x for x = 0..cols
        k_up = x_dn.copy()  # ext * k for k = 1..cols; the scan restarts at 0
        k_up[0] = -np.inf if is_float else -(2**40)

        # Exchange values of row y for all lanes: erow[g, x] =
        # E[seq1_g[y], seq2_g[x]].  When the lanes split one sequence
        # they share the row residue and the query profile, so it is one
        # profile row gathered at per-lane offsets (``idx``); otherwise a
        # per-batch table of the lanes' substitution rows side by side,
        # addressed by per-lane residue.  Padded columns clip onto
        # finite neighbours.
        deepest = problems[-1]
        views = [p.profile for p in problems]
        shared = all(
            v is not None
            and v.profile is views[0].profile
            and np.array_equal(p.seq1, deepest.seq1[: p.rows])
            for p, v in zip(problems, views)
        )
        if shared:
            profile = views[0].profile
            table = profile.scores if is_float else profile.integer_scores()
            codes = deepest.seq1.tolist()
            starts = [v.start for v in views]
        else:
            starts = np.concatenate(([0], np.cumsum(cols_l))).tolist()
            table = np.empty((problems[0].exchange.size, starts[-1]), dtype=work)
            codes1 = np.zeros((max_rows, group, 1), dtype=np.int64)
            for g, p in enumerate(problems):
                table[:, starts[g] : starts[g + 1]] = (
                    p.substitution_rows() if is_float else p.substitution_rows_int()
                )
                codes1[: p.rows, g, 0] = p.seq1
            codes1 *= table.shape[1]
            table = table.ravel()
        np.add(np.array(starts[:group])[:, None], np.arange(-1, width - 1), out=idx)

        results: list[np.ndarray | None] = [None] * group
        pending = group
        done_at: dict[int, list[int]] = {}
        for g, rows in enumerate(rows_l):
            done_at.setdefault(rows, []).append(g)
        masks_at: dict[int, list[tuple[int, np.ndarray]]] = {}
        for g, p in enumerate(problems):
            if p.override is not None:
                for y, mask in _row_masks(p.override, p.rows).items():
                    masks_at.setdefault(y, []).append((g, mask))

        # Prune gates (repro.align.pruning): one cutoff column per lane;
        # a lane whose running best sinks to its cutoff is never
        # harvested, and the batch ends once every lane is harvested or
        # pruned.  Padded columns hold stale garbage (harmless for
        # results, see module docstring) — mask them out so per-lane
        # maxima, and therefore the recorded bounds, stay exact.
        gates = [p.prune for p in problems]
        cutoffs = PruneGate.lane_cutoffs(gates, max_rows)
        if cutoffs is not None:
            best = np.zeros(group, dtype=work)
            lane_max = np.empty(group, dtype=work)
            valid.fill(0)
            for g, cols in enumerate(cols_l):
                valid[g, 1 : cols + 1] = 1

        y = 0
        while y < max_rows:
            y += 1
            diag = prev[1]  # diag[x] = M[y-1][x-1]
            row = curr[0]
            if shared:
                table[codes[y - 1]].take(idx, out=erow, mode="clip")
            else:
                np.add(idx, codes1[y - 1], out=flat)
                table.take(flat, out=erow, mode="clip")

            # MaxX via prefix max of B[k] = diag[k] - open + ext*k.
            np.add(diag, k_up, out=b)
            b -= open_
            np.maximum.accumulate(b, axis=1, out=b)
            # inner = max(MaxX, MaxY, diag), assembled in place.
            np.maximum(max_y, diag, out=inner)
            np.subtract(b_left, x_dn, out=tmp)
            np.maximum(inner, tmp, out=inner)

            np.add(inner, erow, out=row)
            np.maximum(row, 0, out=row)
            if clamp:
                np.minimum(row, INT16_MAX, out=row)
            row[:, 0] = 0
            for g, mask in masks_at.get(y, ()):
                row[g, 1 : mask.size + 1][mask] = 0

            # MaxY[x] <- max(diag - open, MaxY[x]) - ext, for the next row.
            np.subtract(diag, open_, out=tmp)
            np.maximum(max_y, tmp, out=max_y)
            max_y -= ext

            for g in done_at.get(y, ()):
                if results[g] is None:
                    results[g] = row[g, : cols_l[g] + 1].astype(np.float64)
                    pending -= 1

            if cutoffs is not None and pending:
                np.multiply(row, valid, out=tmp)
                tmp.max(axis=1, out=lane_max)
                np.maximum(best, lane_max, out=best)
                hit = best <= cutoffs[y]
                if hit.any():
                    for g in np.flatnonzero(hit).tolist():
                        # Provably below the floor: never harvested; the
                        # driver records gate.bound for the lane's task.
                        gates[g].record_row_prune(y, float(best[g]))
                        results[g] = np.zeros(cols_l[g] + 1, dtype=np.float64)
                        cutoffs[:, g] = -np.inf
                        pending -= 1
                    # Skip the tail no surviving lane needs.
                    max_rows = max(
                        (rows_l[g] for g in range(group) if results[g] is None),
                        default=0,
                    )

            prev, curr = curr, prev

        return results  # every lane harvested or pruned

