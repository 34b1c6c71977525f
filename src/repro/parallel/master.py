"""The distributed master (§4.3).

One rank — the master — is sacrificed to own the search
(:class:`~repro.core.session.TopAlignmentSession`: task queue,
bottom-row store, override triangle) and to hand its checked-out
batches to idle slaves.  Slaves request nothing; the master pushes
``ALIGN`` work whenever a slave has spare capacity and absorbs the
``ROW`` replies.  When a head may be accepted while replies are
outstanding is the session's rule (see :mod:`repro.core.session`).

Protocol (payloads are what :mod:`repro.cluster.transport` can frame):

===========  ==========  ==================================================
tag          direction   payload
===========  ==========  ==================================================
``T_ALIGN``  m -> s      ``(version, ((r, with_override), ...))`` — align
                         these splits in one engine batch; the slave's
                         triangle replica is already at ``version``.  A
                         first pass runs without the override view
``T_ROW``    s -> m      ``(r_head, bottom_rows, engine_seconds)``
``T_MARK``   m -> s      ``tuple[pair, ...]`` — a newly accepted top
                         alignment; sent to *every* slave, FIFO order
                         guarantees it precedes any task that assumes it
``T_STOP``   m -> s      ``None`` — shut down
===========  ==========  ==================================================

Because the session stamps each batch with the triangle version in
force when it was checked out, and per-slave FIFO ordering means the
slave's replica has seen exactly the marks of that version before it
computes, every returned score is attributed to the right version — the
distributed run is *deterministic* and produces the sequential
algorithm's alignments.
"""

from __future__ import annotations

from ..core.result import RunStats, TopAlignment
from ..core.session import Checkout, TopAlignmentSession
from .msgpass import ANY, Communicator

__all__ = ["T_ALIGN", "T_ROW", "T_MARK", "T_STOP", "MasterRunner"]

T_ALIGN = 1
T_ROW = 2
T_MARK = 3
T_STOP = 4


class MasterRunner:
    """Drives ``session`` to ``k`` alignments from rank 0."""

    def __init__(
        self,
        comm: Communicator,
        session: TopAlignmentSession,
        k: int,
        *,
        slave_capacity: int = 1,
    ) -> None:
        if comm.size < 2:
            raise ValueError("need at least one slave rank")
        if k < 1:
            raise ValueError("k must be >= 1")
        self.comm = comm
        self.session = session
        self.k = k
        self.slave_capacity = slave_capacity
        # Batches sent out and not yet answered, by head split.
        self._pending: dict[int, Checkout] = {}
        self._load = {rank: 0 for rank in range(1, comm.size)}
        self._marked = 0  # accepted alignments already broadcast
        #: Bottom-row bytes shipped back (the paper's "each slave sends
        #: up to 64 KB/s" observation).
        self.bytes_received = 0

    def _idle_slave(self) -> int | None:
        best = min(self._load, key=lambda rank: (self._load[rank], rank))
        return best if self._load[best] < self.slave_capacity else None

    def run(self) -> tuple[list[TopAlignment], RunStats]:
        """Execute the search and stop all slaves before returning."""
        session = self.session
        try:
            while True:
                self._assign()
                if not self._pending:
                    break  # nothing to hand out and nothing in flight: finished
                msg = self.comm.recv(source=ANY, tag=T_ROW)
                head_r, rows, seconds = msg.payload
                batch = self._pending.pop(head_r)
                self._load[msg.source] -= 1
                self.bytes_received += sum(row.nbytes for row in rows)
                session.absorb(batch, rows, seconds)
        finally:
            self.comm.bcast_from(None, T_STOP)
        return session.alignments, session.stats

    def _assign(self) -> None:
        """Hand batches to slaves with spare capacity until blocked."""
        session = self.session
        while (slave := self._idle_slave()) is not None:
            # Acceptance — traceback runs here, on the master, sequentially.
            batch = session.checkout(self.k)
            for alignment in session.state.found[self._marked :]:
                self.comm.bcast_from(alignment.pairs, T_MARK)
            self._marked = session.state.n_found
            if batch is None:
                return
            splits = tuple(
                (task.r, problem.override is not None)
                for task, problem in zip(batch.tasks, batch.problems)
            )
            self.comm.send((batch.version, splits), slave, T_ALIGN)
            self._pending[batch.tasks[0].r] = batch
            self._load[slave] += 1
