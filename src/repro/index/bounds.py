"""Provable per-split upper bounds on first-pass top-alignment scores.

This module computes, in O(n·|Σ|) total, a finite bound ``B(r)`` for
every split ``r`` that provably dominates the true first-pass score.
No search starts from these bounds: the exact block bounds of
:mod:`repro.align.pruning` seed the best-first heap, and under them
these saved no cell on the benchmark's DNA scans and 0.035 % of the
cells of indexed protein searches (EXPERIMENTS.md, "Composition seeds
under block bounds").  The function stays for the benchmark's
tightness probe.

Two bounds are combined (ALAE-style: cheap precomputed maxima that the
exact search can trust):

**Composition bound.**  Let ``w(a) = max_b max(s(a, b), 0)`` be the
best non-negative score residue ``a`` can earn in any matched pair.
Every matched pair ``(a, b)`` of a local alignment scores at most
``min(w(a), w(b))``, each residue participates in at most one pair,
and gaps only subtract, so::

    score(r)  <=  min( sum_{i<r} w(S_i),  sum_{i>=r} w(S_i) )

computed for all ``r`` at once via one prefix sum over ``w[codes]``.

**Identity bound** (only when every off-diagonal entry of the matrix
is ``<= 0``, e.g. the paper's +2/−1 nucleotide matrix — *not*
BLOSUM62): only same-letter pairs can contribute positively, letter
``a`` can pair at most ``min(count_a(prefix), count_a(suffix))``
times, each occurrence scoring at most ``max(s(a, a), 0)``::

    score(r)  <=  sum_a min(c_a(prefix), c_a(suffix)) * max(s(a,a), 0)

The final bound is the minimum of the applicable bounds, clamped to 0
(scores of accepted alignments are strictly positive).

No :mod:`repro.align` import happens here (lint rule RPR017): bounds
are pure counting, never a kernel call.
"""

from __future__ import annotations

import numpy as np

from ..scoring.exchange import ExchangeMatrix
from ..sequences.sequence import Sequence

__all__ = ["seed_score_bounds"]


def seed_score_bounds(
    sequence: Sequence, exchange: ExchangeMatrix
) -> np.ndarray:
    """Upper bounds ``B(r) >= first-pass score`` for splits ``r=1..m-1``.

    Returns a float64 array of length ``len(sequence) - 1`` whose entry
    ``i`` bounds split ``r = i + 1``.
    """
    codes = sequence.codes
    m = codes.size
    if m < 2:
        return np.zeros(0, dtype=np.float64)
    scores = exchange.scores
    positive = np.maximum(scores, 0.0)
    # Composition bound via one prefix sum of per-residue weights.
    weights = positive.max(axis=1)
    wseq = weights[codes]
    prefix = np.cumsum(wseq)
    total = prefix[-1]
    left = prefix[:-1]
    bounds = np.minimum(left, total - left)
    # Identity bound, valid only for identity-dominant matrices.
    offdiag = scores - np.diag(np.diag(scores))
    if float(offdiag.max()) <= 0.0:
        diag_pos = np.maximum(np.diag(scores), 0.0)
        onehot = np.zeros((m, scores.shape[0]), dtype=np.float64)
        onehot[np.arange(m), codes] = 1.0
        cum = np.cumsum(onehot, axis=0)
        prefix_counts = cum[:-1]
        suffix_counts = cum[-1] - prefix_counts
        identity = np.minimum(prefix_counts, suffix_counts) @ diag_pos
        bounds = np.minimum(bounds, identity)
    return np.maximum(bounds, 0.0)
