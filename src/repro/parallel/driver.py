"""Distributed driver: cluster-of-SMPs execution (§4.3).

``find_top_alignments_distributed`` spawns ``n_slaves`` worker
processes (each optionally multi-threaded, modelling one dual-CPU DAS-2
node), runs the master protocol from the calling process, and returns
exactly the sequential algorithm's top alignments.

This is the *functional* reproduction of the paper's MPI deployment —
it proves the protocol end-to-end on real processes.  The *performance*
reproduction (Figure 8's speedups at up to 128 CPUs) lives in
:mod:`repro.simulate`, because a single development machine cannot
exhibit 128-way scaling.
"""

from __future__ import annotations

from ..core.result import RunStats, TopAlignment
from ..core.session import TopAlignmentSession
from ..scoring.exchange import ExchangeMatrix
from ..scoring.gaps import GapPenalties
from ..sequences.sequence import Sequence
from .master import MasterRunner
from .msgpass import World
from .slave import SlaveConfig, slave_main

__all__ = ["find_top_alignments_distributed"]


def find_top_alignments_distributed(
    sequence: Sequence,
    k: int,
    exchange: ExchangeMatrix,
    gaps: GapPenalties = GapPenalties(),
    *,
    n_slaves: int = 2,
    threads_per_slave: int = 1,
    engine: str = "vector",
    min_score: float = 0.0,
) -> tuple[list[TopAlignment], RunStats]:
    """Distributed drop-in for :func:`repro.core.find_top_alignments`.

    ``n_slaves * threads_per_slave`` alignment workers run in
    ``n_slaves`` separate processes; the caller becomes the sacrificed
    master.  Results are identical to the sequential algorithm.
    """
    if n_slaves < 1:
        raise ValueError("need at least one slave")
    if threads_per_slave < 1:
        raise ValueError("threads_per_slave must be >= 1")

    session = TopAlignmentSession(
        sequence, exchange, gaps, engine=engine, group=1, min_score=min_score
    )
    config = SlaveConfig(
        codes=sequence.codes.tobytes(),
        m=len(sequence),
        exchange=exchange,
        gaps=gaps,
        engine=engine,
        n_threads=threads_per_slave,
    )
    with World(n_slaves + 1) as world:
        world.start(slave_main, config)
        runner = MasterRunner(
            world.comm, session, k, slave_capacity=threads_per_slave
        )
        return runner.run()
