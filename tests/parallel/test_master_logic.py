"""Unit tests of the master's scheduling logic with an in-process fake
communicator (no processes: deterministic, fast, failure-injectable)."""

import numpy as np
import pytest

from repro.align import AlignmentProblem, VectorEngine
from repro.core import DenseOverrideTriangle, TopAlignmentState, find_top_alignments
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
            r, version = payload
            self.align_requests.append((dest, r, version))
            triangle = self._triangles[dest]
            assert triangle.version == version, "slave replica out of sync"
            problem = AlignmentProblem(
                self._codes[:r],
                self._codes[r:],
                self._exchange,
                self._gaps,
                triangle.view_for_split(r),
            )
            row = self._engine.last_row(problem)
            self._pending.append(Message(dest, T_ROW, (r, version, row)))
        elif tag == T_MARK:
            self._triangles[dest].mark(payload)
            self.marks_sent += 1
        elif tag == T_STOP:
            self.stops += 1
        else:  # pragma: no cover
            raise AssertionError(f"unexpected tag {tag}")

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
    # prune=False, as parallel.driver builds it: the paper's master hands
    # out every split's version-0 first pass before anything else.
    state = TopAlignmentState(small_repeat_protein, ex, gaps, prune=False)
    comm = FakeSlaveComm(small_repeat_protein.codes, ex, gaps, n_slaves=3)
    return small_repeat_protein, ex, gaps, state, comm


class TestMasterLogic:
    def test_results_equal_sequential(self, setup):
        seq, ex, gaps, state, comm = setup
        runner = MasterRunner(comm, state, 5)
        tops, _ = runner.run()
        expected, _ = find_top_alignments(seq, 5, ex, gaps)
        assert [(a.r, a.score, a.pairs) for a in tops] == [
            (a.r, a.score, a.pairs) for a in expected
        ]

    def test_every_slave_gets_work(self, setup):
        _, _, _, state, comm = setup
        MasterRunner(comm, state, 3).run()
        assert {slave for slave, _, _ in comm.align_requests} == {1, 2, 3}

    def test_marks_broadcast_to_all_slaves(self, setup):
        _, _, _, state, comm = setup
        tops, _ = MasterRunner(comm, state, 4).run()
        assert comm.marks_sent == len(tops) * 3

    def test_all_slaves_stopped(self, setup):
        _, _, _, state, comm = setup
        MasterRunner(comm, state, 2).run()
        assert comm.stops == 3

    def test_first_pass_assignments_at_version_zero(self, setup):
        seq, _, _, state, comm = setup
        MasterRunner(comm, state, 2).run()
        m = len(seq)
        first_pass = comm.align_requests[: m - 1]
        assert all(version == 0 for _, _, version in first_pass)
        assert {r for _, r, _ in first_pass} == set(range(1, m))

    def test_capacity_respected(self, setup):
        """With capacity c, a slave never holds more than c outstanding
        tasks; verified by replaying the request/reply interleaving."""
        seq, ex, gaps, state, comm = setup
        runner = MasterRunner(comm, state, 3, slave_capacity=2)
        runner.run()
        # The master may stop with replies still outstanding (k reached),
        # but the load accounting must stay within capacity and agree
        # with the in-flight set.
        assert all(0 <= load <= 2 for load in runner._load.values())
        assert sum(runner._load.values()) == len(runner._inflight)

    def test_bytes_accounted(self, setup):
        _, _, _, state, comm = setup
        runner = MasterRunner(comm, state, 2)
        runner.run()
        assert runner.bytes_received > 0

    def test_validation(self, setup):
        _, _, _, state, comm = setup
        with pytest.raises(ValueError):
            MasterRunner(comm, state, 0)
        comm.size = 1
        with pytest.raises(ValueError):
            MasterRunner(comm, state, 1)

    def test_exhaustion_stops_cleanly(self, dna_scoring):
        from repro.sequences import tandem_repeat_sequence

        ex, gaps = dna_scoring
        seq = tandem_repeat_sequence("ACG", 3)
        state = TopAlignmentState(seq, ex, gaps)
        comm = FakeSlaveComm(seq.codes, ex, gaps, n_slaves=2)
        tops, _ = MasterRunner(comm, state, 50).run()
        expected, _ = find_top_alignments(seq, 50, ex, gaps)
        assert len(tops) == len(expected) < 50
        assert comm.stops == 2
