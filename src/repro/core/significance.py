"""Statistical significance of top-alignment scores.

A top alignment's raw score does not say whether the repeat is *real*:
every sequence, shuffled, still has some best self-alignment.  The
standard treatment (Karlin–Altschul / Waterman) is that optimal local
alignment scores of unrelated sequences follow an extreme-value (Gumbel)
distribution.  This module estimates that null distribution empirically
— shuffle the sequence, rerun the first top alignment, repeat — and
reports empirical and Gumbel-fitted p-values.

Used by examples and the scanner to separate genuine repeat
architecture from background self-similarity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..align.base import DEFAULT_ENGINE
from ..scoring.exchange import ExchangeMatrix
from ..scoring.gaps import GapPenalties
from ..sequences.sequence import Sequence
from .topalign import find_top_alignments

__all__ = ["NullDistribution", "shuffled", "estimate_null", "score_pvalue"]


def shuffled(sequence: Sequence, rng: np.random.Generator) -> Sequence:
    """A composition-preserving shuffle of ``sequence``."""
    codes = sequence.codes.copy()
    rng.shuffle(codes)
    return Sequence(codes, sequence.alphabet, id=f"{sequence.id}-shuffled")


@dataclass(frozen=True)
class NullDistribution:
    """Empirical null of best self-alignment scores plus a Gumbel fit.

    The Gumbel location/scale are method-of-moments estimates:
    ``scale = std * sqrt(6)/pi``, ``loc = mean - gamma * scale``.
    """

    scores: np.ndarray
    loc: float
    scale: float

    def empirical_pvalue(self, score: float) -> float:
        """Fraction of null scores >= ``score`` (add-one smoothed)."""
        n = self.scores.size
        return (int((self.scores >= score).sum()) + 1) / (n + 1)

    def gumbel_pvalue(self, score: float) -> float:
        """Right-tail p-value under the fitted Gumbel distribution."""
        if self.scale <= 0:
            return 1.0 if score <= self.loc else 0.0
        z = (score - self.loc) / self.scale
        # P(X >= s) = 1 - exp(-exp(-z)), computed stably for large z.
        inner = np.exp(-z)
        return float(-np.expm1(-inner))


_EULER_GAMMA = 0.5772156649015329


def estimate_null(
    sequence: Sequence,
    exchange: ExchangeMatrix,
    gaps: GapPenalties = GapPenalties(),
    *,
    shuffles: int = 30,
    seed: int = 0,
    engine: str = DEFAULT_ENGINE,
) -> NullDistribution:
    """Estimate the null distribution of the best self-alignment score.

    Runs the first top alignment on ``shuffles`` composition-preserving
    shuffles.  Cost: ``shuffles`` first passes — O(shuffles · n³) — so
    keep ``shuffles`` modest for long sequences.
    """
    if shuffles < 2:
        raise ValueError("need at least 2 shuffles to fit a distribution")
    rng = np.random.default_rng(seed)
    scores = np.empty(shuffles, dtype=np.float64)
    for i in range(shuffles):
        null_seq = shuffled(sequence, rng)
        tops, _ = find_top_alignments(null_seq, 1, exchange, gaps, engine=engine)
        scores[i] = tops[0].score if tops else 0.0
    std = float(scores.std(ddof=1))
    scale = std * np.sqrt(6.0) / np.pi
    loc = float(scores.mean()) - _EULER_GAMMA * scale
    return NullDistribution(scores=scores, loc=loc, scale=scale)


def score_pvalue(
    sequence: Sequence,
    exchange: ExchangeMatrix,
    gaps: GapPenalties = GapPenalties(),
    *,
    shuffles: int = 30,
    seed: int = 0,
    engine: str = DEFAULT_ENGINE,
) -> tuple[float, float, NullDistribution]:
    """Best self-alignment score of ``sequence`` with its p-value.

    Returns ``(score, gumbel_pvalue, null)``.
    """
    tops, _ = find_top_alignments(sequence, 1, exchange, gaps, engine=engine)
    score = tops[0].score if tops else 0.0
    null = estimate_null(
        sequence, exchange, gaps, shuffles=shuffles, seed=seed, engine=engine
    )
    return score, null.gumbel_pvalue(score), null
