"""Query-profile cache — precomputed substitution gathers.

Every alignment of the top-alignment workload scores pieces of the
*same* query sequence: split ``r`` aligns ``S[1..r]`` (vertically)
against ``S[r+1..m]`` (horizontally).  The engines' first step used to
be the per-call gather ``E[:, seq2]`` — an ``n_symbols x cols`` fancy
index repeated for every (re)alignment, even though ``seq2`` is always
a suffix of the one query.  The SIMD Smith–Waterman literature (the SSW
library of Zhao et al., Farrar's striped method) removes exactly this
overhead by building a *query profile* once per query; this module is
the row-vectorised analogue.

:class:`QueryProfile` computes the full ``n_symbols x m`` gather once
per sequence — in float64 eagerly, and lazily as the *lane table* the
lockstep row step gathers from (:meth:`QueryProfile.lane_table`: the
narrow work dtype, row-shifted, with a leading sentinel column).
:class:`ProfileView` is a zero-copy column window ``[start, stop)`` that
:class:`~repro.align.base.AlignmentProblem` carries to the engines,
which then *slice* instead of re-gathering.  Engines that receive no
profile fall back to the per-call gather, so standalone problems are
unaffected.
"""

from __future__ import annotations

import numpy as np

from ..scoring.exchange import ExchangeMatrix

__all__ = ["QueryProfile", "ProfileView", "NEG"]

#: The lockstep row step's work types, narrowest first, each with its
#: "no predecessor" sentinel.  An integer type is exact while every
#: intermediate of the recurrence stays inside ``(2 * NEG, -NEG)``, so
#: ``-NEG`` is also the exclusive score bound that admits the type
#: (``repro.align.rowstep.work_dtype``); float64 takes whatever is left.
NEG = {"int16": -(2**14), "int32": -(2**29), "float64": -np.inf}


class QueryProfile:
    """The full substitution gather ``P[a, x] = E[a, seq[x]]`` of one query.

    Parameters
    ----------
    codes:
        Residue codes of the query sequence (the horizontal axis of
        every view taken from this profile).
    exchange:
        The exchange matrix being gathered.
    """

    __slots__ = ("codes", "exchange", "scores", "_lane_tables")

    def __init__(self, codes: np.ndarray, exchange: ExchangeMatrix) -> None:
        self.codes = np.ascontiguousarray(codes, dtype=np.int8)
        self.exchange = exchange
        gathered = exchange.scores[:, self.codes.astype(np.int64)]
        gathered = np.ascontiguousarray(gathered)
        gathered.setflags(write=False)
        #: ``(n_symbols, len(codes))`` float64 gather, read-only.
        self.scores = gathered
        self._lane_tables: dict[tuple[str, float], np.ndarray] = {}

    def __len__(self) -> int:
        return self.codes.size

    @property
    def n_symbols(self) -> int:
        """Number of residue codes the profile's exchange matrix covers."""
        return self.scores.shape[0]

    def lane_table(self, dtype: str, ext: float) -> np.ndarray:
        """``(n_symbols, len + 1)`` gather table of the lockstep row step.

        Column ``j >= 1`` holds ``E[a, seq[j-1]] + ext`` (the row shift
        ``M + ext*y`` moves one ``ext`` per row into the exchange term);
        column 0 holds ``NEG[dtype]`` — gathering it forces a cell to
        the zero floor, which is how the boundary column, padded columns
        and overridden cells are all computed.  Built once per
        ``(dtype, ext)`` and cached on the profile; ``dtype`` must be
        exact for the scores (``repro.align.rowstep.work_dtype``).
        """
        table = self._lane_tables.get((dtype, ext))
        if table is None:
            table = np.empty((self.n_symbols, len(self) + 1), dtype=dtype)
            table[:, 0] = NEG[dtype]
            np.add(self.scores, ext, out=table[:, 1:], casting="unsafe")
            table.setflags(write=False)
            self._lane_tables[(dtype, ext)] = table
        return table

    def view(self, start: int, stop: int | None = None) -> "ProfileView":
        """Zero-copy window over query columns ``[start, stop)``."""
        return ProfileView(self, start, len(self) if stop is None else stop)

    def suffix(self, r: int) -> "ProfileView":
        """The window of split ``r``'s horizontal sequence ``S[r+1..m]``."""
        return self.view(r)


class ProfileView:
    """A column window of a :class:`QueryProfile` (what engines consume).

    Slicing a numpy array along its last axis yields a
    view, so a :class:`ProfileView` costs O(1) memory no matter how many
    alignment problems share the underlying profile.
    """

    __slots__ = ("profile", "start", "stop")

    def __init__(self, profile: QueryProfile, start: int, stop: int) -> None:
        if not 0 <= start <= stop <= len(profile):
            raise ValueError(
                f"profile window [{start}, {stop}) outside 0..{len(profile)}"
            )
        self.profile = profile
        self.start = start
        self.stop = stop

    @property
    def cols(self) -> int:
        """Width of the window (must equal the problem's column count)."""
        return self.stop - self.start

    @property
    def scores(self) -> np.ndarray:
        """Float64 ``(n_symbols, cols)`` view — no copy, no gather."""
        return self.profile.scores[:, self.start : self.stop]
