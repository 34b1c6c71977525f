"""Shared-memory dynamic speculative scheduler (§4.2).

Worker threads repeatedly check out the best stale work of one
:class:`~repro.core.session.TopAlignmentSession` that is not already
held by another thread, (re)align it, and absorb it back.  The queue,
the rule that decides when a current head may be accepted while other
work is in flight, and all row bookkeeping live in the session (see
:mod:`repro.core.session`); this module only supplies the threads, with
the engine call outside the one condition variable that guards the
session.
"""

from __future__ import annotations

import threading

from ..core.result import RunStats, TopAlignment
from ..core.session import TopAlignmentSession
from ..obs import span as obs_span
from ..scoring.exchange import ExchangeMatrix
from ..scoring.gaps import GapPenalties
from ..sequences.sequence import Sequence

__all__ = ["ThreadedTopAlignmentRunner", "find_top_alignments_threaded"]


class ThreadedTopAlignmentRunner:
    """Runs ``session`` to ``k`` alignments with ``n_threads`` workers."""

    def __init__(
        self, session: TopAlignmentSession, k: int, *, n_threads: int = 2
    ) -> None:
        if k < 1:
            raise ValueError("k must be >= 1")
        if n_threads < 1:
            raise ValueError("n_threads must be >= 1")
        self.session = session
        self.k = k
        self.n_threads = n_threads
        self._cond = threading.Condition()
        self._error: BaseException | None = None

    def run(self) -> tuple[list[TopAlignment], RunStats]:
        """Execute and return ``(top_alignments, stats)``."""
        threads = [
            threading.Thread(target=self._worker, name=f"repro-worker-{i}")
            for i in range(self.n_threads)
        ]
        with obs_span(
            "best_first", driver="shared", k=self.k, threads=self.n_threads
        ):
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        if self._error is not None:
            raise self._error
        return self.session.alignments, self.session.stats

    def _worker(self) -> None:
        try:
            self._worker_loop()
        except BaseException as exc:  # propagate to run()
            with self._cond:
                self._error = exc
                self._cond.notify_all()

    def _worker_loop(self) -> None:
        session = self.session
        while True:
            with self._cond:
                while True:
                    if self._error is not None:
                        return
                    batch = session.checkout(self.k)
                    if batch is not None:
                        break
                    if session.finished(self.k):
                        self._cond.notify_all()
                        return
                    self._cond.wait()
            # Engine work happens outside the lock.
            rows, seconds = session.state.fill(batch.problems)
            with self._cond:
                session.absorb(batch, rows, seconds)
                self._cond.notify_all()


def find_top_alignments_threaded(
    sequence: Sequence,
    k: int,
    exchange: ExchangeMatrix,
    gaps: GapPenalties = GapPenalties(),
    *,
    n_threads: int = 2,
    engine: str = "vector",
    min_score: float = 0.0,
) -> tuple[list[TopAlignment], RunStats]:
    """Threaded drop-in for :func:`repro.core.find_top_alignments`.

    One task per thread at a time, as in the paper: each thread is one
    CPU running the ``vector`` kernel.
    """
    session = TopAlignmentSession(
        sequence, exchange, gaps, engine=engine, group=1, min_score=min_score
    )
    return ThreadedTopAlignmentRunner(session, k, n_threads=n_threads).run()
