"""The one Equation 1 row step, for any number of lockstep lanes.

The Figure 3 recurrence looks loop-carried because of the running
maximum ``MaxX``, but ``MaxX`` is only fed from the *previous* row::

    MaxX(x) = max_{k<x} ( M[y-1][k-1] - open - ext*(x-k) )
            = prefix_max( M[y-1][k-1] + ext*k )[x-1] - ext*x - open

so a row is O(1) array operations — the Python-level analogue of a SIMD
vector per instruction, the register as wide as the row — and G lanes
cost the same number of calls as one.  The rows are kept in *row-shifted
coordinates* ``M'[y] = M[y] + ext*y`` (DESIGN.md, "The lockstep row
step"): the column gap term ``MaxY`` then needs no per-row decay, it is
``yq - open + ext`` with ``yq`` a plain running maximum of the
diagonals above; the one ``ext`` per row rides in the exchange table;
and "zero" is the row's ``floor = ext*y``.  The table's sentinel column holds ``NEG``, so every
forced-zero cell — column 0, the columns past a lane's own, overridden
cells — is just ``max(inner + NEG, floor)``.  Ten calls per row, all
``out=``, in the narrowest exact work type (:func:`work_dtype`).

**Start rows.**  A row depends on nothing above it but two vectors: the
previous row ``M'[y-1]`` and ``yq``.  A lane whose problem carries a
:class:`~repro.align.base.Resume` request from row ``s`` has both loaded
into its slots at row ``s + 1``; whatever it stepped before that is
discarded, and a batch starts at its earliest lane's row.  Every
:data:`SNAPSHOT_ROWS`-th row the two vectors of the whole batch are
copied out (one copy per grid, not per lane) and each requesting lane
gets its own rows of them back on its request — what a later resume of
that matrix starts from (DESIGN.md, "Resuming a realignment").  They
are kept in the narrowest exact type (:func:`work_dtype` from int16),
which is int16 at every size the benchmark runs.

:mod:`repro.align.lanes` drives it over packed batches;
:mod:`repro.align.vector` is its one-lane instance.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from .base import AlignmentProblem
from .profile import NEG, QueryProfile
from .pruning import Staircase

__all__ = ["SNAPSHOT_ROWS", "WIDTHS", "same_scoring", "work_dtype", "lockstep_rows"]

#: Work types, narrowest first (the keys of ``profile.NEG``).
WIDTHS = tuple(NEG)

#: Rows between two saved states of a fill that was asked for them (a
#: :class:`~repro.align.base.Resume` request): a realignment resumes
#: from a multiple of this.  8, 16 and 32 were measured on the benchmark
#: records (EXPERIMENTS.md, "Resuming a realignment"): a finer grid skips
#: more rows and keeps more bytes per filled split.
SNAPSHOT_ROWS = 16


def same_scoring(problems: list[AlignmentProblem]) -> None:
    """Raise unless ``problems`` share gap penalties and exchange matrix
    (true of the top-alignment workload: one sequence, many splits)."""
    gaps, exchange = problems[0].gaps, problems[0].exchange
    for p in problems[1:]:
        if p.gaps != gaps:
            raise ValueError("lane group must share gap penalties")
        if p.exchange is not exchange and p.exchange.name != exchange.name:
            raise ValueError("lane group must share the exchange matrix")


def work_dtype(requested: str, problem: AlignmentProblem, rows: int, cols: int) -> str:
    """The narrowest exact work type at or above ``requested``.

    An integer type is exact when the scoring is integral and the bound
    on every intermediate of a ``rows x cols`` fill — ``max|E| *
    min(rows, cols)`` for a score, ``ext * (rows + cols)`` for the row
    shift and the prefix-max offsets, one more exchange term, ``open`` —
    stays below ``-NEG`` of the type.  Fractional scoring, or a bound
    past int32's, runs in float64.
    """
    peak = problem.exchange.integral_peak
    if requested != "float64" and peak is not None:
        try:
            open_, ext = problem.gaps.as_integers()
        except ValueError:
            return "float64"
        bound = peak * (min(rows, cols) + 1) + ext * (rows + cols + 1) + open_
        for name in WIDTHS[WIDTHS.index(requested) :]:
            if bound < -NEG[name]:
                return name
    return "float64"


def lockstep_rows(
    problems: list[AlignmentProblem],
    dtype: str | None = None,
    scratch: Callable[[int, int, str], np.ndarray] | None = None,
) -> Iterator[tuple[int, np.ndarray, float]]:
    """Yield ``(y, row, floor)`` for ``y = top + 1..`` the deepest lane's rows.

    ``problems`` (none empty, one scoring model) advance together;
    ``row`` is the reused ``(lanes, max_cols + 1)`` grid of row ``y`` in
    row-shifted coordinates and work type ``dtype`` (one that is exact
    for the batch; default :func:`work_dtype` from int32): the true row
    is ``row - floor``.  Column 0 and the columns past a lane's own
    hold ``floor``.  A lane keeps stepping past its last row (values
    nobody reads); consumers stop when they have what they need.
    ``top`` is the smallest start row (:attr:`AlignmentProblem.resume_row`)
    of the batch — 0 unless every lane resumes — and a resumed lane's
    rows up to its own start are not its matrix's (module docstring), so
    a caller that wants every row passes no resume request.  Every
    requesting lane's :attr:`Resume.snapshots` is set, an array of its
    own, once the deepest lane's last row has been stepped; a consumer
    that stops early leaves the requests unanswered.
    ``scratch(count, cells, dtype)`` supplies the working buffers
    (default: fresh arrays).
    """
    group = len(problems)
    cols_l = [p.cols for p in problems]
    deepest = max(problems, key=lambda p: p.rows)
    width = max(cols_l) + 1
    if dtype is None:
        dtype = work_dtype("int32", deepest, deepest.rows, width - 1)
    neg = NEG[dtype]
    step = SNAPSHOT_ROWS
    top = min(p.resume_row for p in problems)
    gaps = problems[0].gaps
    open_, ext = (gaps.open_, gaps.extend) if dtype == "float64" else gaps.as_integers()

    # Working rows are (lanes, width) grids.  Each is carved with one
    # leading slot, so ``shifted(k)`` — the same memory one element
    # earlier — is the grid moved one column right (cell x reads cell
    # x-1) while staying contiguous, which numpy needs to run a whole
    # grid as one loop.  A lane's column 0 then reads its neighbour's
    # last cell: a finite value that never leaves column 0, because the
    # scan restarts there (k_up) and the gather puts NEG there.
    cells = group * width + 1
    if scratch is None:
        bufs = np.empty((8, cells), dtype=dtype)
    else:
        bufs = scratch(8, cells, dtype)
    bufs[:, 0] = 0
    bufs[:2].fill(0)  # row 0 is the zero boundary, M'[0] = 0

    def grid(k: int) -> np.ndarray:
        return bufs[k, 1:].reshape(group, width)

    def shifted(k: int) -> np.ndarray:
        return bufs[k, :-1].reshape(group, width)

    prev, curr = (grid(0), shifted(0)), (grid(1), shifted(1))
    b, b_left = grid(2), shifted(2)
    yq, t, ebuf, x_dn, k_up = (grid(k) for k in range(3, 8))
    yq.fill(neg)  # yq[x] = max_{j<y} M'[j-1][x-1]
    # Whole grids, not broadcast rows: equal-shape contiguous operands
    # run as one flat loop, at half the cost of a broadcast.
    x_dn[:] = ext * np.arange(width)  # ext * x for x = 0..cols
    k_up[:] = x_dn  # ext * k for k = 1..cols
    k_up[:, 0] = neg  # the prefix max restarts in every lane
    open_ = np.asarray(open_, dtype=dtype)
    # np.fmax, not np.maximum: equal here (NEG only ever meets finite
    # values, so no NaN arises), and a binary np.maximum call costs
    # ~1 us more than any other ufunc call in numpy 2.x.
    fmax = np.fmax

    # Exchange values of row y: erow[g, x] = E[seq1_g[y], seq2_g[x]] +
    # ext from a lane table (QueryProfile.lane_table), NEG wherever
    # ``idx`` points at its sentinel column.  Lanes that split one
    # sequence share the row residue and the query profile, so a row is
    # one table row gathered at per-lane offsets — once per residue of
    # the alphabet, not per row (one cached grid per residue; the
    # packer's ``MAX_ROW_CELLS`` is what bounds them).  Unrelated lanes
    # get a throwaway profile of their seq2s side by side, addressed per
    # lane residue.
    views = [p.profile for p in problems]
    shared = all(
        v is not None
        and v.profile is views[0].profile
        and np.array_equal(p.seq1, deepest.seq1[: p.rows])
        for p, v in zip(problems, views)
    )
    if shared:
        profile = views[0].profile
        starts = [v.start for v in views]
        codes = deepest.seq1.tolist()
        gathered: dict[int, np.ndarray] = {}
    else:
        starts = np.cumsum([0] + cols_l[:-1]).tolist()
        profile = QueryProfile(
            np.concatenate([p.seq2 for p in problems]), problems[0].exchange
        )
        codes1 = np.zeros((deepest.rows, group, 1), dtype=np.intp)
        for g, p in enumerate(problems):
            codes1[: p.rows, g, 0] = p.seq1
        codes1 *= len(profile) + 1
        flat = np.empty((group, width), dtype=np.intp)
    table = profile.lane_table(dtype, ext)
    x = np.arange(width)
    inside = (x >= 1) & (x <= np.array(cols_l)[:, None])
    idx = np.where(inside, np.array(starts)[:, None] + x, 0)

    # Overrides: when every overridden lane windows one triangle over
    # the shared profile (the realignment batch, first-pass lanes mixed
    # in or not), row y masks the one profile row before the gather and
    # the first-pass lanes take their unmasked values back.  Staircase
    # lanes (block problems) are stepped together, below.  Any other mix
    # asks each overridden lane for its row mask.
    overrides = [p.override for p in problems]
    plain = [g for g, o in enumerate(overrides) if o is None]
    stairs = [g for g, o in enumerate(overrides) if isinstance(o, Staircase)]
    triangle = next((o.triangle for o in overrides if hasattr(o, "triangle")), None)
    fold = (
        shared
        and triangle is not None
        and triangle.m == len(profile)
        and all(
            o is None or (getattr(o, "triangle", None) is triangle and o.r == start)
            for o, start in zip(overrides, starts)
        )
    )
    masked = [] if fold else sorted(set(range(group)) - set(plain) - set(stairs))
    if stairs:
        # Block lanes (repro.align.pruning): lane g zeroes columns
        # 1..y - first_g of row y.  A step is never wider than the
        # block, so the whole batch is one masked store per row into the
        # leading ``reach`` columns, from a table built here at once.
        firsts = np.array([overrides[g].first for g in stairs])
        stair_from = int(firsts.min())  # rows up to here have no step
        reach = min(
            max(problems[g].rows - overrides[g].first for g in stairs), width - 1
        )
        steps = np.zeros((deepest.rows - stair_from, group, reach), dtype=bool)
        steps[:, stairs] = (
            np.arange(1, reach + 1) + firsts[:, None]
            <= np.arange(stair_from + 1, deepest.rows + 1)[:, None, None]
        )

    # Resume requests: lane g's saved row s_g goes into its slots at row
    # s_g + 1.  The batch's rows S, 2S, .. below ``top`` and above the
    # deepest bottom row are copied out in the narrowest exact type; once
    # the last row is stepped each requesting lane gets its own copy of
    # its share — its columns of the rows between its start and its bottom.
    loads: dict[int, list[int]] = {}
    next_save = 0  # the next row copied out; 0 once there is none
    requests = [(g, p.resume) for g, p in enumerate(problems) if p.resume is not None]
    if requests:
        for g, resume in requests:
            if resume.start:
                loads.setdefault(resume.start + 1, []).append(g)
        skip = top // step  # saved rows 1..skip lie above the batch
        narrow = work_dtype("int16", deepest, deepest.rows, width - 1)
        snaps = np.empty(((deepest.rows - 1) // step - skip, 2, group, width), narrow)
        if len(snaps):
            next_save = (skip + 1) * step

    for y in range(top + 1, deepest.rows + 1):
        for g in loads.pop(y, ()) if loads else ():
            saved, cols = problems[g].resume.saved, cols_l[g]
            prev[0][g, 0] = ext * (y - 1)  # column 0 holds the floor
            prev[0][g, 1 : cols + 1] = saved[0]
            yq[g, 1 : cols + 1] = saved[1]
        diag, row = prev[1], curr[0]  # diag[x] = M'[y-1][x-1]
        if shared:
            erow = gathered.get(code := codes[y - 1])
            if erow is None:
                erow = gathered[code] = table[code].take(idx, mode="clip")
            if fold and (flags := triangle.row_flags(y)) is not None:
                np.where(flags, neg, table[code]).take(idx, out=ebuf, mode="clip")
                for g in plain:
                    ebuf[g] = erow[g]
                erow = ebuf
        else:
            erow = ebuf
            np.add(idx, codes1[y - 1], out=flat)
            table.take(flat, out=erow, mode="clip")

        np.add(diag, k_up, b)
        np.maximum.accumulate(b, 1, None, b)
        np.subtract(b_left, x_dn, t)  # MaxX + ext*y + open - ext
        fmax(t, yq, t)  # ... or MaxY, ditto
        np.subtract(t, open_, t)
        fmax(t, diag, t)  # max(MaxX, MaxY, diag) + ext*y - ext
        np.add(t, erow, row)
        floor = ext * y
        fmax(row, floor, row)
        for g in masked:
            mask = overrides[g].row_mask(y) if y <= problems[g].rows else None
            if mask is not None:
                row[g, 1 : mask.size + 1][mask] = floor
        if stairs and y > stair_from:
            np.copyto(row[:, 1 : reach + 1], floor, where=steps[y - stair_from - 1])
        fmax(yq, diag, yq)
        if y == next_save:
            k = y // step - skip - 1
            np.copyto(snaps[k, 0], row, casting="unsafe")
            np.copyto(snaps[k, 1], yq, casting="unsafe")
            next_save = y + step if k + 1 < len(snaps) else 0
        yield y, row, floor
        prev, curr = curr, prev

    for g, resume in requests:
        rows = slice(resume.start // step - skip, (problems[g].rows - 1) // step - skip)
        resume.snapshots = snaps[rows, :, g, 1 : cols_l[g] + 1].copy()
