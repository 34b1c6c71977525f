"""The distributed slave (§4.3).

A slave replicates the override triangle (cheap: read often, updated
only on acceptances), services ``ALIGN`` requests — one engine batch
each — with its local alignment engine, and ships the bottom rows back
to the master.  With ``n_threads > 1`` it models one SMP node: a small
thread pool computes several assignments concurrently while a receiver
loop keeps applying triangle updates — and, echoing the paper's
MPI-without-thread-support workaround, all sends go through a mutex.
"""

from __future__ import annotations

import queue as queue_mod
import threading
import time
from dataclasses import dataclass

from ..align.base import AlignmentProblem, get_engine
from ..align.profile import QueryProfile
from ..core.override import DenseOverrideTriangle
from ..scoring.exchange import ExchangeMatrix
from ..scoring.gaps import GapPenalties
from .msgpass import ANY, Communicator
from .master import T_ALIGN, T_MARK, T_ROW, T_STOP

__all__ = ["SlaveConfig", "slave_main"]


@dataclass(frozen=True)
class SlaveConfig:
    """Everything a slave needs to reconstruct the problem locally."""

    codes: bytes  # int8 sequence codes, as raw bytes (cheap to pickle)
    m: int
    exchange: ExchangeMatrix
    gaps: GapPenalties
    engine: str = "vector"
    n_threads: int = 1


def slave_main(comm: Communicator, config: SlaveConfig) -> None:
    """Entry point run on every slave rank (see :class:`SlaveConfig`)."""
    import numpy as np

    codes = np.frombuffer(config.codes, dtype=np.int8)
    engine = get_engine(config.engine)
    profile = QueryProfile(codes, config.exchange)
    triangle = DenseOverrideTriangle(config.m)
    send_lock = threading.Lock()  # "we protect all MPI calls with a mutex"
    work: queue_mod.Queue = queue_mod.Queue()

    def compute(_version: int, splits: tuple[tuple[int, bool], ...]) -> None:
        problems = [
            AlignmentProblem(
                codes[:r],
                codes[r:],
                config.exchange,
                config.gaps,
                triangle.view_for_split(r) if with_override else None,
                profile=profile.suffix(r),
            )
            for r, with_override in splits
        ]
        start = time.perf_counter()
        rows = engine.last_rows_batch(problems)
        seconds = time.perf_counter() - start
        with send_lock:
            comm.send((splits[0][0], rows, seconds), 0, T_ROW)

    def worker() -> None:
        while True:
            item = work.get()
            if item is None:
                return
            compute(*item)

    threads = [
        threading.Thread(target=worker, name=f"slave-cpu-{i}", daemon=True)
        for i in range(config.n_threads)
    ]
    for t in threads:
        t.start()

    try:
        while True:
            msg = comm.recv(source=0, tag=ANY)
            if msg.tag == T_STOP:
                return
            if msg.tag == T_MARK:
                triangle.mark(msg.payload)
            elif msg.tag == T_ALIGN:
                work.put(msg.payload)
            else:  # pragma: no cover - unknown tag means a protocol bug
                raise RuntimeError(f"slave got unexpected tag {msg.tag}")
    finally:
        for _ in threads:
            work.put(None)
        for t in threads:
            t.join(timeout=10.0)
