"""Unit tests of the master's dispatch with an in-process fake
communicator (no processes: deterministic, fast, failure-injectable).

That the master policy returns the sequential tops is a point of the
conformance lattice (``tests/conformance``), whose in-process slaves
(:class:`~tests.conformance.lattice.InProcessSlaves`) these tests drive.
"""

import pytest

from repro.align.lanes import OWED_LANES
from repro.core import TopAlignmentSession, TopAlignmentState
from repro.parallel.master import T_ALIGN, MasterRunner
from tests.conformance.lattice import InProcessSlaves


@pytest.fixture()
def setup(small_repeat_protein, protein_scoring):
    ex, gaps = protein_scoring
    # prune=False, group=1: the paper's master hands out every split's
    # version-0 first pass, one split per message, before anything else.
    state = TopAlignmentState(small_repeat_protein, ex, gaps, prune=False)
    session = TopAlignmentSession.from_state(state, group=1)
    comm = InProcessSlaves(small_repeat_protein.codes, ex, gaps, n_slaves=3)
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
        comm = InProcessSlaves(small_repeat_protein.codes, ex, gaps, n_slaves=2)
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
