"""Unit tests of the master's dispatch with an in-process fake
communicator (no processes: deterministic, fast, failure-injectable).

That the master policy returns the sequential tops, and that it stops
its slaves on every exit path, is asserted with every other policy in
``tests/core/test_policies.py`` (which borrows :class:`FakeSlaveComm`).
"""

import numpy as np
import pytest

from repro.align import AlignmentProblem, VectorEngine
from repro.align.lanes import OWED_LANES
from repro.core import DenseOverrideTriangle, TopAlignmentSession, TopAlignmentState
from repro.parallel.master import T_ALIGN, T_MARK, T_ROW, T_STOP, MasterRunner
from repro.parallel.msgpass import ANY, Message


class FakeSlaveComm:
    """Communicator double: executes slave work synchronously in-process.

    ALIGN requests are computed immediately with a local engine+triangle
    replica and queued as ROW replies; MARK updates the replica; recv
    pops pending replies.  This exercises every master code path without
    multiprocessing nondeterminism.
    """

    def __init__(self, codes, exchange, gaps, n_slaves=2):
        self.rank = 0
        self.size = n_slaves + 1
        self._codes = codes
        self._exchange = exchange
        self._gaps = gaps
        self._engine = VectorEngine()
        self._triangles = {
            rank: DenseOverrideTriangle(codes.size)
            for rank in range(1, self.size)
        }
        self._pending: list[Message] = []
        self.align_requests: list[tuple[int, int, int]] = []  # (slave, r, version)
        self.marks_sent = 0
        self.stops = 0

    def send(self, payload, dest, tag=0):
        if tag == T_ALIGN:
            version, splits = payload
            triangle = self._triangles[dest]
            assert triangle.version == version, "slave replica out of sync"
            rows = []
            for r, with_override in splits:
                self.align_requests.append((dest, r, version))
                problem = AlignmentProblem(
                    self._codes[:r],
                    self._codes[r:],
                    self._exchange,
                    self._gaps,
                    triangle.view_for_split(r) if with_override else None,
                )
                rows.append(np.array(self._engine.last_row(problem)))
            self._pending.append(Message(dest, T_ROW, (splits[0][0], rows, 0.0)))
        elif tag == T_MARK:
            self._triangles[dest].mark(payload)
            self.marks_sent += 1
        elif tag == T_STOP:
            self.stops += 1
        else:  # pragma: no cover
            raise AssertionError(f"unexpected tag {tag}")

    def bcast_from(self, payload, tag=0):
        for dest in range(1, self.size):
            self.send(payload, dest, tag)

    def recv(self, source=ANY, tag=ANY, timeout=None):
        for idx, msg in enumerate(self._pending):
            if (source == ANY or msg.source == source) and (
                tag == ANY or msg.tag == tag
            ):
                return self._pending.pop(idx)
        raise TimeoutError("no pending message (protocol deadlock)")


@pytest.fixture()
def setup(small_repeat_protein, protein_scoring):
    ex, gaps = protein_scoring
    # prune=False, group=1: the paper's master hands out every split's
    # version-0 first pass, one split per message, before anything else.
    state = TopAlignmentState(small_repeat_protein, ex, gaps, prune=False)
    session = TopAlignmentSession.from_state(state, group=1)
    comm = FakeSlaveComm(small_repeat_protein.codes, ex, gaps, n_slaves=3)
    return small_repeat_protein, session, comm


class TestMasterLogic:
    def test_every_slave_gets_work(self, setup):
        _, session, comm = setup
        MasterRunner(comm, session, 3).run()
        assert {slave for slave, _, _ in comm.align_requests} == {1, 2, 3}

    def test_marks_broadcast_to_all_slaves(self, setup):
        _, session, comm = setup
        tops, _ = MasterRunner(comm, session, 4).run()
        assert comm.marks_sent == len(tops) * 3

    def test_first_pass_assignments_at_version_zero(self, setup):
        seq, session, comm = setup
        MasterRunner(comm, session, 2).run()
        m = len(seq)
        first_pass = comm.align_requests[: m - 1]
        assert all(version == 0 for _, _, version in first_pass)
        assert {r for _, r, _ in first_pass} == set(range(1, m))

    def test_capacity_respected(self, setup):
        """With capacity c, a slave never holds more than c outstanding
        batches, and every one of them is absorbed before the run ends."""
        _, session, comm = setup
        loads = []
        real_send = comm.send

        def send(payload, dest, tag=0):
            real_send(payload, dest, tag)
            loads.append(max(runner._load.values()))

        comm.send = send
        runner = MasterRunner(comm, session, 3, slave_capacity=2)
        runner.run()
        assert max(loads) <= 2
        assert not runner._pending and not any(runner._load.values())

    def test_lane_batches_travel_as_one_message(self, small_repeat_protein, protein_scoring):
        """``group`` works under the master policy: a batch is one ALIGN —
        ``group`` stale splits at most, and a packer-sized chunk of first
        passes (owed whatever the order, so not speculation)."""
        ex, gaps = protein_scoring
        session = TopAlignmentSession(small_repeat_protein, ex, gaps, group=4)
        comm = FakeSlaveComm(small_repeat_protein.codes, ex, gaps, n_slaves=2)
        sizes = {True: [], False: []}  # keyed by "the head is a realignment"
        real_send = comm.send

        def send(payload, dest, tag=0):
            if tag == T_ALIGN:
                splits = payload[1]
                sizes[splits[0][1]].append(len(splits))
            real_send(payload, dest, tag)

        comm.send = send
        MasterRunner(comm, session, 3).run()
        assert max(sizes[True]) == 4
        assert max(sizes[False]) == OWED_LANES

    def test_bytes_accounted(self, setup):
        _, session, comm = setup
        runner = MasterRunner(comm, session, 2)
        runner.run()
        assert runner.bytes_received > 0
        assert session.stats.alignments == len(comm.align_requests)

    def test_validation(self, setup):
        _, session, comm = setup
        with pytest.raises(ValueError):
            MasterRunner(comm, session, 0)
        comm.size = 1
        with pytest.raises(ValueError):
            MasterRunner(comm, session, 1)
