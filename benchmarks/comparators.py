"""Comparator engines: figure code, not product options.

Three evaluations of a local-alignment matrix that exist only so the
paper's §4.1/§5.1 design-space claims can be measured.  None is in
``repro.align``'s closed engine table (``scalar``/``vector``/``lanes``);
each is an :class:`~repro.align.AlignmentEngine` subclass, so a bench or
test passes an *instance* wherever an engine is accepted.  They answer
no harvest request (block bounds are an optimisation, never a
correctness requirement), so a search over one starts at ``+inf``.

* :class:`StripedEngine` — cache-aware vertical striping (§4.1, last
  part; ``bench_striping.py``).  Bit-identical to ``vector``.
* :class:`DiagonalEngine` — the anti-diagonal wavefront the paper
  rejected (§4.1; ``bench_diagonal.py``).  Bit-identical to ``vector``.
* :class:`GotohEngine` / :func:`gotoh_matrix` — the textbook
  Smith–Waterman–Gotoh recurrence.  **Not** Equation 1: its top
  alignments differ, which is why it must never be reachable by name.
"""

from __future__ import annotations

import numpy as np

from repro.align import AlignmentEngine, AlignmentProblem

__all__ = ["StripedEngine", "DiagonalEngine", "GotohEngine", "gotoh_matrix"]


class StripedEngine(AlignmentEngine):
    """Vector engine with the paper's stripe-wise traversal order.

    The paper computes each matrix in vertical stripes sized to a third
    of the L1 cache: a section of a row, then the section of the row
    *below* it, so the working set (row section, ``MaxY`` section,
    exchange rows) stays cache-resident.  Carrying the recurrence
    across a stripe boundary needs, per row ``y``, ``M[y][x0-1]`` (the
    diagonal feed of the stripe's first column) and the running prefix
    maximum of ``B[k] = M[y][k-1] - open + ext*k`` over all columns left
    of the stripe (the ``MaxX`` state, a plain running maximum in the
    transformed coordinates).  Both are O(rows) vectors saved while
    sweeping one stripe and consumed by the next, so memory stays
    linear.  Whether striping *helps* in numpy is what
    ``bench_striping.py`` measures (``results/striping.txt``).

    Parameters
    ----------
    stripe:
        Stripe width in matrix columns.  The paper sizes stripes to a
        third of the 16 KB L1 data cache of the Pentium III — 2730
        two-byte entries; the default uses the same cell count.
    """

    name = "striped"

    def __init__(self, stripe: int = 2730) -> None:
        if stripe < 1:
            raise ValueError("stripe width must be positive")
        self.stripe = stripe

    def __repr__(self) -> str:
        return f"StripedEngine(stripe={self.stripe})"

    def last_row(self, problem: AlignmentProblem) -> np.ndarray:
        rows, cols = problem.rows, problem.cols
        out = np.zeros(cols + 1, dtype=np.float64)
        if rows == 0 or cols == 0:
            return out

        open_, ext = problem.gaps.open_, problem.gaps.extend
        override = problem.override
        sub = problem.substitution_rows()
        seq1 = problem.seq1

        # Cross-stripe carry state, indexed by row y = 0..rows:
        # left_diag[y]  = M[y][x0-1] of the stripe being entered;
        # carry_pref[y] = max_{k <= x0-1} B[y][k] (transformed MaxX).
        left_diag = np.zeros(rows + 1, dtype=np.float64)
        carry_pref = np.full(rows + 1, -np.inf, dtype=np.float64)

        for x0 in range(1, cols + 1, self.stripe):
            x1 = min(x0 + self.stripe - 1, cols)
            width = x1 - x0 + 1
            ks = np.arange(x0, x1 + 1, dtype=np.float64)  # global column ids

            prev = np.zeros(width + 1, dtype=np.float64)  # [0] = M[y-1][x0-1]
            curr = np.empty(width + 1, dtype=np.float64)
            max_y = np.full(width, -np.inf, dtype=np.float64)
            new_left = np.zeros(rows + 1, dtype=np.float64)
            new_pref = np.full(rows + 1, -np.inf, dtype=np.float64)

            # A per-ROW loop, not per-cell: the body is vectorised across
            # the stripe's columns (SWAT-style striping).
            for y in range(1, rows + 1):
                prev[0] = left_diag[y - 1]
                diag = prev[:width]  # diag[j] = M[y-1][x0-1+j]
                erow = sub[seq1[y - 1], x0 - 1 : x1]

                # B[k] = diag - open + ext*k over this stripe's columns,
                # prefix-maxed together with the carry from the left
                # (carry_pref[y] is the prefix over columns < x0 of the
                # B series consumed while computing row y).
                b = diag - open_ + ext * ks
                np.maximum.accumulate(b, out=b)
                np.maximum(b, carry_pref[y], out=b)
                # MaxX used at column k is the prefix up to k-1.
                inner = np.maximum(max_y, diag)
                inner[0] = max(inner[0], carry_pref[y] - ext * x0)
                if width > 1:
                    np.maximum(inner[1:], b[:-1] - ext * ks[1:], out=inner[1:])

                np.add(inner, erow, out=curr[1:])
                np.maximum(curr[1:], 0.0, out=curr[1:])
                if override is not None:
                    mask = override.row_mask(y)
                    if mask is not None:
                        curr[1:][mask[x0 - 1 : x1]] = 0.0

                np.maximum(max_y, diag - open_, out=max_y)
                max_y -= ext

                new_left[y] = curr[width]
                new_pref[y] = b[-1]
                if y == rows:
                    out[x0 : x1 + 1] = curr[1:]
                prev, curr = curr, prev

            left_diag = new_left
            carry_pref = new_pref

        return out


class DiagonalEngine(AlignmentEngine):
    """Wavefront evaluation of the Equation 1 recurrence.

    §4.1: "It is possible to compute the entries diagonally ... such
    that all entries in a diagonal can be computed independently, but
    the administrative overhead is large."  All cells of anti-diagonal
    ``d = y + x`` are computed with one batch of vector operations;
    their dependencies lie on diagonals ``< d``.  The overhead shows up
    as the gather/scatter fancy indexing every diagonal needs and the
    O(n²) matrix that makes the gathers addressable
    (``bench_diagonal.py``, ``results/diagonal.txt``).
    """

    name = "diagonal"

    def last_row(self, problem: AlignmentProblem) -> np.ndarray:
        return self.full_matrix(problem)[-1].astype(np.float64)

    def full_matrix(self, problem: AlignmentProblem) -> np.ndarray:
        """The complete matrix, computed one anti-diagonal at a time."""
        rows, cols = problem.rows, problem.cols
        M = np.zeros((rows + 1, cols + 1), dtype=np.float64)
        if rows == 0 or cols == 0:
            return M
        open_, ext = problem.gaps.open_, problem.gaps.extend
        override = problem.override
        sub = problem.exchange.scores[:, problem.seq2.astype(np.int64)]
        seq1 = problem.seq1.astype(np.int64)

        max_x = np.full(rows + 1, -np.inf, dtype=np.float64)  # per-row running maxima
        max_y = np.full(cols + 1, -np.inf, dtype=np.float64)  # per-column running maxima

        # Pre-fetch override masks per row (None when clear).
        masks = None
        if override is not None:
            masks = [None] + [override.row_mask(y) for y in range(1, rows + 1)]

        for d in range(2, rows + cols + 1):
            y_lo = max(1, d - cols)
            y_hi = min(rows, d - 1)
            ys = np.arange(y_lo, y_hi + 1)
            xs = d - ys
            diag = M[ys - 1, xs - 1]  # gather: the "administrative overhead"
            e = sub[seq1[ys - 1], xs - 1]
            inner = np.maximum(np.maximum(max_x[ys], max_y[xs]), diag)
            values = np.maximum(0.0, e + inner)
            if masks is not None:
                for idx, y in enumerate(ys):
                    mask = masks[y]
                    if mask is not None and mask[xs[idx] - 1]:
                        values[idx] = 0.0
            M[ys, xs] = values  # scatter
            seed = diag - open_
            max_x[ys] = np.maximum(seed, max_x[ys]) - ext
            max_y[xs] = np.maximum(seed, max_y[xs]) - ext
        return M


def gotoh_matrix(problem: AlignmentProblem) -> np.ndarray:
    """Full ``H`` matrix of the Smith–Waterman–Gotoh recurrence.

    Equation 1 is the Heringa/Argos variant of local alignment: gap
    jumps originate from row ``i-1`` / column ``j-1``, so *every* path
    cell is a matched pair — which is what lets the override triangle
    mark exactly the matched residues.  The textbook formulation lets
    gaps extend from the current row/column instead::

        H[i][j] = max(0, H[i-1][j-1] + E(a_i, b_j), F[i][j], G[i][j])
        F[i][j] = max(H[i][j-1] - open - ext, F[i][j-1] - ext)   # gap in A
        G[i][j] = max(H[i-1][j] - open - ext, G[i-1][j] - ext)   # gap in B

    ``tests/align/test_gotoh.py`` establishes how the two relate
    (identical optima for gapless alignments; Gotoh an upper bound
    otherwise).  The override hook is honoured the same way as in Equation 1 (cells
    forced to zero after computation) so the engines stay comparable.
    """
    rows, cols = problem.rows, problem.cols
    H = np.zeros((rows + 1, cols + 1), dtype=np.float64)
    if rows == 0 or cols == 0:
        return H
    open_, ext = problem.gaps.open_, problem.gaps.extend
    first = open_ + ext  # cost of opening a gap of length 1
    sub = problem.exchange.scores[:, problem.seq2.astype(np.int64)]
    override = problem.override

    G = np.full(cols, -np.inf, dtype=np.float64)  # vertical gap state, per column
    for y in range(1, rows + 1):
        prev = H[y - 1]
        erow = sub[problem.seq1[y - 1]]
        # Vertical gaps: G[j] = max(H[y-1][j] - first, G[j] - ext).
        np.maximum(prev[1:] - first, G - ext, out=G)
        diag = prev[:cols] + erow
        best = np.maximum(diag, G)
        # Horizontal gaps depend on the *current* row: F[j] =
        # max_k<=j-1 (H[y][k] - open - ext*(j-k)) — a left-to-right scan
        # that interacts with the max(0, .) clamp, so do it scalar; the
        # scan state is one register, still O(cols).
        row = H[y]
        f = -np.inf
        mask = override.row_mask(y) if override is not None else None
        for x in range(1, cols + 1):
            h = best[x - 1]
            if f > h:
                h = f
            if h < 0.0:
                h = 0.0
            if mask is not None and mask[x - 1]:
                h = 0.0
            row[x] = h
            seed = h - first
            f = f - ext
            if seed > f:
                f = seed
    return H


class GotohEngine(AlignmentEngine):
    """Bottom row / best score under the textbook recurrence."""

    name = "gotoh"

    def last_row(self, problem: AlignmentProblem) -> np.ndarray:
        return gotoh_matrix(problem)[-1].astype(np.float64)

    def score(self, problem: AlignmentProblem) -> float:
        """Best score anywhere (the textbook optimum, not bottom-row)."""
        return float(gotoh_matrix(problem).max())
