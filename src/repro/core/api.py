"""High-level public API.

Most users need exactly one call::

    from repro import find_repeats
    result = find_repeats(sequence, top_alignments=20)

:class:`RepeatFinder` is the configurable object behind it, useful when
scanning many sequences with the same scoring model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..align.base import DEFAULT_ENGINE, DEFAULT_GROUP, AlignmentEngine, get_engine
from ..scoring.exchange import ExchangeMatrix
from ..scoring.gaps import GapPenalties
from ..scoring.named import exchange_for
from ..sequences.sequence import Sequence
from .checkpoint import restore_checkpoint
from .delineate import delineate_repeats
from .result import RepeatResult
from .session import TopAlignmentSession
from .topalign import TopAlignmentState

__all__ = ["RepeatFinder", "find_repeats"]


@dataclass
class RepeatFinder:
    """Reusable, configured repeat detector.

    Parameters
    ----------
    exchange:
        Exchange matrix; defaults per sequence alphabet (BLOSUM62 for
        protein, +2/-1 for nucleotide alphabets).
    gaps:
        Affine gap penalties (default open 2, extend 1 — the paper's
        worked example; use e.g. ``GapPenalties(10, 1)`` with BLOSUM62
        for realistic protein work).
    top_alignments:
        How many nonoverlapping top alignments to compute — "typically
        10–30, some more for large sequences" (§3).
    engine:
        One of :data:`~repro.align.base.ENGINE_NAMES` (``"lanes"``,
        ``"vector"``, ``"scalar"``) or an
        :class:`~repro.align.base.AlignmentEngine` instance.  The
        default is the lockstep lane engine
        (:data:`~repro.align.base.DEFAULT_ENGINE`).
    group:
        Stale tasks realigned per engine batch by the best-first driver
        (:mod:`repro.core.session`): 8 by default
        (:data:`~repro.align.base.DEFAULT_GROUP`, the paper's SSE2
        grain), 1 for the strictly sequential loop.  The default pair —
        ``lanes`` at ``group=8`` with ``prune=True`` — is within 10 % of
        the fastest knob setting on every benchmark workload (a CI
        gate); results are identical for every setting.
    min_score:
        Alignments scoring at or below this are not reported.
    prune:
        Use the exact block bounds (default ``True``; see
        :mod:`repro.align.pruning`): a handful of block fills bound
        every split's first-pass score, and a split whose bound never
        tops the heap is never filled.  Reported repeats are identical
        either way.
    min_copy_length, max_gap, min_score_fraction:
        Delineation knobs (see
        :func:`repro.core.delineate.delineate_repeats`).
    """

    exchange: ExchangeMatrix | None = None
    gaps: GapPenalties = field(default_factory=GapPenalties)
    top_alignments: int = 20
    engine: str | AlignmentEngine = DEFAULT_ENGINE
    group: int = DEFAULT_GROUP
    min_score: float = 0.0
    prune: bool = True
    min_copy_length: int = 2
    max_gap: int = 0
    min_score_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.top_alignments < 1:
            raise ValueError("top_alignments must be >= 1")
        if self.group < 1:
            raise ValueError("group must be >= 1")
        # Shared across records of a scan: one engine instance (so its
        # lane scratch block persists) and one exchange per alphabet.
        self._engine_instance: AlignmentEngine | None = None
        self._exchange_cache: dict[str, ExchangeMatrix] = {}

    def _engine_for_run(self) -> AlignmentEngine:
        if self._engine_instance is None:
            self._engine_instance = get_engine(self.engine)
        return self._engine_instance

    def resolve_exchange(self, sequence: Sequence) -> ExchangeMatrix:
        """The exchange matrix this finder uses for ``sequence``.

        Explicit configuration wins; otherwise the per-alphabet default
        (cached per alphabet, so a scan over mixed records builds each
        matrix once).  Public for callers that need the matrix without
        a search — index routing, shard priorities.
        """
        if self.exchange is not None:
            return self.exchange
        name = sequence.alphabet.name
        cached = self._exchange_cache.get(name)
        if cached is None:
            cached = exchange_for(None, sequence.alphabet)
            self._exchange_cache[name] = cached
        return cached

    def delineate(self, alignments, length: int):
        """Phase 2 under this finder's knobs (see :func:`delineate_repeats`).

        Its own method so a subclass can observe or replace the phase
        (the benchmark times it); :meth:`result` is the caller.
        """
        return delineate_repeats(
            alignments,
            length,
            min_copy_length=self.min_copy_length,
            max_gap=self.max_gap,
            min_score_fraction=self.min_score_fraction,
        )

    def session(
        self,
        sequence: Sequence | str,
        *,
        checkpoint=None,
    ) -> TopAlignmentSession:
        """A live best-first search over ``sequence`` under this finder.

        The one place a configured finder becomes a search: scoring
        model, the cached engine instance, ``group``, ``prune`` and
        ``min_score`` all come from here, so every executor —
        :meth:`find` and the checkpointing service worker — searches
        exactly what :meth:`find` would.

        ``checkpoint`` is a :func:`~repro.core.checkpoint.save_checkpoint`
        file to continue from (:class:`ValueError` when it is unusable).
        """
        if isinstance(sequence, str):
            sequence = Sequence(sequence, "protein")
        state = TopAlignmentState(
            sequence,
            self.resolve_exchange(sequence),
            self.gaps,
            engine=self._engine_for_run(),
            prune=self.prune,
        )
        if checkpoint is not None:
            restore_checkpoint(state, checkpoint)
        return TopAlignmentSession.from_state(
            state, group=self.group, min_score=self.min_score
        )

    def result(self, session: TopAlignmentSession) -> RepeatResult:
        """Phase 2 over what ``session`` has accepted so far."""
        alignments = session.alignments
        return RepeatResult(
            top_alignments=alignments,
            repeats=self.delineate(alignments, session.state.m),
            stats=session.stats,
        )

    def find(self, sequence: Sequence | str, *, seed_bounds=None) -> RepeatResult:
        """Run both Repro phases on ``sequence`` and return everything.

        ``seed_bounds`` is accepted only as ``None`` and is unread: the
        block bounds of ``prune`` are a search's only starting bounds.
        It stays because the benchmark's traced finder passes it.
        """
        if seed_bounds is not None:
            raise ValueError("seed_bounds must be None: block bounds seed the heap")
        session = self.session(sequence)
        session.extend(self.top_alignments)
        return self.result(session)


def find_repeats(
    sequence: Sequence | str,
    top_alignments: int = 20,
    *,
    exchange: ExchangeMatrix | None = None,
    gaps: GapPenalties | None = None,
    engine: str | AlignmentEngine = DEFAULT_ENGINE,
    group: int = DEFAULT_GROUP,
    min_score: float = 0.0,
    prune: bool = True,
    min_copy_length: int = 2,
    max_gap: int = 0,
    min_score_fraction: float = 0.25,
) -> RepeatResult:
    """One-shot repeat detection (see :class:`RepeatFinder`)."""
    finder = RepeatFinder(
        exchange=exchange,
        gaps=gaps if gaps is not None else GapPenalties(),
        top_alignments=top_alignments,
        engine=engine,
        group=group,
        min_score=min_score,
        prune=prune,
        min_copy_length=min_copy_length,
        max_gap=max_gap,
        min_score_fraction=min_score_fraction,
    )
    return finder.find(sequence)
