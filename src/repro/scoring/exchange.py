"""Exchange (substitution) matrices.

An :class:`ExchangeMatrix` maps a pair of residue codes to a similarity
score — "high scores for two identical or similar sequence elements,
and low or negative scores for unrelated ones" (paper §2.1).  The
matrix is stored densely so that engines can gather a whole row
(``E[a, :]`` for one vertical residue against every horizontal residue)
with a single fancy-index, the vector analogue of the paper's per-cell
exchange lookup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..sequences.alphabet import Alphabet

__all__ = ["ExchangeMatrix", "match_mismatch", "from_triangle_text"]


@dataclass(frozen=True)
class ExchangeMatrix:
    """A symmetric ``size x size`` residue-pair score table.

    Parameters
    ----------
    name:
        Identifier (``"blosum62"``, ``"simple+2/-1"``, ...).
    alphabet:
        The alphabet whose codes index the table.
    scores:
        Square array of scores; symmetrised and stored as ``float64``
        (integer engines convert on the fly and verify integrality).
    """

    name: str
    alphabet: Alphabet
    scores: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 2 or scores.shape[0] != scores.shape[1]:
            raise ValueError("exchange matrix must be square")
        if scores.shape[0] != self.alphabet.size:
            raise ValueError(
                f"matrix size {scores.shape[0]} does not match alphabet "
                f"{self.alphabet.name!r} (size {self.alphabet.size})"
            )
        if not np.allclose(scores, scores.T):
            raise ValueError("exchange matrix must be symmetric")
        scores = np.ascontiguousarray(scores)
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)

    @property
    def size(self) -> int:
        """Number of residue codes the matrix covers."""
        return self.scores.shape[0]

    def score(self, a: str, b: str) -> float:
        """Score of a residue-letter pair (convenience accessor)."""
        return float(
            self.scores[self.alphabet.code_of(a), self.alphabet.code_of(b)]
        )

    def lookup(self, codes_a: np.ndarray, codes_b: np.ndarray) -> np.ndarray:
        """Vectorised pairwise scores ``E[codes_a[i], codes_b[i]]``."""
        return self.scores[codes_a, codes_b]

    def row(self, code: int) -> np.ndarray:
        """The score row of one vertical residue against every code."""
        return self.scores[code]

    def as_integers(self) -> np.ndarray:
        """The table as ``int32`` (raises if any entry is fractional)."""
        ints = np.rint(self.scores).astype(np.int32)
        if not np.array_equal(ints, self.scores):
            raise ValueError(f"exchange matrix {self.name!r} is not integral")
        return ints

    @cached_property
    def integral_peak(self) -> int | None:
        """``max |E|`` when every entry is an integer, else ``None``: what
        an exact integer work type needs (``repro.align.rowstep.work_dtype``),
        computed once per matrix."""
        try:
            self.as_integers()
        except ValueError:
            return None
        return int(np.abs(self.scores).max())

    @property
    def max_score(self) -> float:
        """Largest entry — used for score-bound estimates."""
        return float(self.scores.max())


def match_mismatch(
    alphabet: Alphabet,
    match: float = 2.0,
    mismatch: float = -1.0,
    *,
    wildcard_score: float | None = 0.0,
    name: str | None = None,
) -> ExchangeMatrix:
    """The paper's "simplistic" matrix: +``match`` on equal residues,
    ``mismatch`` otherwise.

    If the alphabet has a wildcard and ``wildcard_score`` is not
    ``None``, every pairing involving the wildcard scores
    ``wildcard_score`` (so unknown residues neither help nor hurt).
    """
    scores = np.full((alphabet.size, alphabet.size), mismatch, dtype=np.float64)
    np.fill_diagonal(scores, match)
    wc = alphabet.wildcard_code
    if wc is not None and wildcard_score is not None:
        scores[wc, :] = wildcard_score
        scores[:, wc] = wildcard_score
    label = name or f"simple+{match:g}/{mismatch:g}"
    return ExchangeMatrix(label, alphabet, scores)


def from_triangle_text(
    name: str, alphabet: Alphabet, order: str, triangle: str
) -> ExchangeMatrix:
    """Build a matrix from a lower-triangle whitespace table.

    ``order`` gives the residue order of the published table's rows;
    ``triangle`` holds row *i* with ``i+1`` integers (lower triangle
    including the diagonal).  Residues of ``alphabet`` missing from
    ``order`` score 0 against everything, which matches how published
    BLOSUM/PAM distributions treat letters outside their 24-symbol set.
    """
    rows = [line.split() for line in triangle.strip().splitlines()]
    if len(rows) != len(order):
        raise ValueError(
            f"triangle has {len(rows)} rows but order names {len(order)} residues"
        )
    scores = np.zeros((alphabet.size, alphabet.size), dtype=np.float64)
    codes = [alphabet.code_of(sym) for sym in order]
    for i, row in enumerate(rows):
        if len(row) != i + 1:
            raise ValueError(f"triangle row {i} has {len(row)} entries, expected {i + 1}")
        for j, cell in enumerate(row):
            value = float(cell)
            scores[codes[i], codes[j]] = value
            scores[codes[j], codes[i]] = value
    return ExchangeMatrix(name, alphabet, scores)
