"""Policy conformance at named points of the lattice.

The inline loop, the §4.2 thread scheduler and the §4.3 master/slave
protocol are dispatch policies of one
:class:`~repro.core.session.TopAlignmentSession`; the conformance
harness (``tests/conformance``) draws their configurations.  These are
its fixed points: three inputs under every policy, lane width, pruning
and state budget, each checked by the harness's one
oracle path (:func:`tests.conformance.lattice.check`), plus what the
policies do when a worker or the master fails.  The ``master`` points
of :func:`test_cells_are_the_cells_the_engine_filled` under the default
budget fork real slave processes.

Also green under ``REPRO_CHECK_INVARIANTS=full``.
"""

import dataclasses
import sys
import threading

import pytest

from repro.core import TopAlignmentSession, load_checkpoint, save_checkpoint
from repro.core.override import SparseOverrideTriangle
from repro.parallel import MasterRunner, ThreadedTopAlignmentRunner
from repro.sequences import RepeatSpec, implant_repeats
from tests.conformance.lattice import (
    BLOSUM62,
    Config,
    InProcessSlaves,
    Search,
    check,
    key,
    reference,
)

#: name -> search; "exhausting" asks for far more alignments than the
#: sequence holds.
INPUTS = {
    "tandem-dna": Search("ATGCATGCATGC", k=3),
    "repeat-protein": Search(
        implant_repeats(
            120, RepeatSpec(unit_length=25, copies=3, substitution_rate=0.3), seed=7
        ).sequence.text,
        protein=True,
        scoring=BLOSUM62,
        k=6,
    ),
    "exhausting": Search("ACGACGACG", k=50),
}

#: id -> the session's lane width and how it runs to k.
POLICIES = {
    "inline-g1": Config(group=1),
    "inline-g8": Config(group=8),
    "threads-1": Config(policy="threads", width=1),
    "threads-2": Config(policy="threads", width=2),
    "threads-4": Config(group=1, policy="threads", width=4),
    "master-2x1": Config(policy="master", width=1),
    "master-2x2": Config(group=1, policy="master", width=2),
}


@pytest.mark.parametrize("budget", ["default", "tiny"])
@pytest.mark.parametrize("name", INPUTS)
@pytest.mark.parametrize("prune", [True, False], ids=["prune", "noprune"])
@pytest.mark.parametrize("policy", POLICIES)
def test_tops_equal_the_plain_sequential_run(policy, prune, name, budget):
    config = dataclasses.replace(POLICIES[policy], prune=prune, tiny=budget == "tiny")
    out = check(INPUTS[name], config)
    state = out.session.state
    if name == "exhausting":
        assert out.session.exhausted and len(out.tops) < INPUTS[name].k
    if config.tiny:
        assert isinstance(state.triangle, SparseOverrideTriangle)
        # Slaves save no rows; every other policy's must spill.
        if name == "repeat-protein" and config.policy != "master":
            assert state.snapshots_dropped > 0


@pytest.mark.parametrize("name", INPUTS)
@pytest.mark.parametrize("policy", POLICIES)
def test_cells_are_the_cells_the_engine_filled(policy, name):
    """Under the default budget, and then under the tiny one, where the
    bottom rows a realignment needs are refilled.  Master slaves rebuild
    their problems without the resume request and so count whole
    matrices; under the default budget they are forked processes."""
    for tiny in (False, True):
        config = dataclasses.replace(POLICIES[policy], tiny=tiny, world=not tiny)
        out = check(INPUTS[name], config)
        engine = out.engine
        if config.policy == "master":
            assert engine.cells == engine.matrices
        elif name == "repeat-protein" and not tiny:  # some resume
            assert engine.cells < engine.matrices
        assert (out.session.state.bottom_rows.refills > 0) == tiny


def test_min_score_floor_under_every_policy():
    """A floor arms the block bounds' retirement and the exhaustion
    rule's in-flight clause; the tops above it must not move."""
    search = dataclasses.replace(INPUTS["repeat-protein"], k=30, min_score=25.0)
    assert 0 < len(reference(search)) < 30
    for config in POLICIES.values():
        assert check(search, config).session.exhausted


class TestThreadedPolicy:
    def test_worker_errors_propagate(self):
        search = INPUTS["repeat-protein"]
        session = TopAlignmentSession(search.sequence, search.exchange, search.gaps)

        def boom(problems):
            raise RuntimeError("engine exploded")

        session.state.engine.last_rows_batch = boom
        runner = ThreadedTopAlignmentRunner(session, 2, n_threads=3)
        with pytest.raises(RuntimeError, match="engine exploded"):
            runner.run()
        assert threading.active_count() == 1  # every worker came home

    def test_checkpoint_resume(self, tmp_path):
        """Stop a threaded run, checkpoint, resume threaded: same tops,
        and the accepted alignments are not recomputed."""
        search = INPUTS["repeat-protein"]
        scoring = (search.exchange, search.gaps)
        first = TopAlignmentSession(search.sequence, *scoring)
        ThreadedTopAlignmentRunner(first, 2, n_threads=3).run()
        assert len(first) == 2
        save_checkpoint(first.state, tmp_path / "ckpt.npz")

        state = load_checkpoint(tmp_path / "ckpt.npz", search.sequence, *scoring)
        resumed = TopAlignmentSession.from_state(state)
        tops, stats = ThreadedTopAlignmentRunner(resumed, search.k, n_threads=3).run()
        assert key(tops) == reference(search)
        assert stats.tracebacks == search.k - 2

    def test_extend_after_a_threaded_run_continues_it(self):
        """The policies share one session: hand it from threads to the
        inline loop mid-search."""
        search = INPUTS["repeat-protein"]
        session = TopAlignmentSession(search.sequence, search.exchange, search.gaps)
        ThreadedTopAlignmentRunner(session, 3, n_threads=2).run()
        session.extend(search.k - 3)
        assert key(session.alignments) == reference(search)

    def test_stress_more_threads_than_cores(self):
        """Lost updates under contention would break in-flight dominance
        (a wrong top) or strand a task (a hang)."""
        search = INPUTS["repeat-protein"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                session = TopAlignmentSession(
                    search.sequence, search.exchange, search.gaps, group=2
                )
                runner = ThreadedTopAlignmentRunner(session, search.k, n_threads=16)
                worker = threading.Thread(target=runner.run)
                worker.start()
                worker.join(timeout=60)
                assert not worker.is_alive()
                assert key(session.alignments) == reference(search)
        finally:
            sys.setswitchinterval(interval)


class TestMasterPolicy:
    def _comm(self, search, n_slaves=2):
        return InProcessSlaves(
            search.sequence.codes, search.exchange, search.gaps, n_slaves=n_slaves
        )

    @pytest.mark.parametrize("name", ["repeat-protein", "exhausting"])
    def test_every_slave_stopped_when_the_search_ends(self, name):
        """``k`` reached, and exhausted first."""
        search = INPUTS[name]
        comm = self._comm(search)
        session = TopAlignmentSession(search.sequence, search.exchange, search.gaps)
        tops, _ = MasterRunner(comm, session, search.k).run()
        assert key(tops) == reference(search)
        assert comm.stops == 2

    def test_every_slave_stopped_when_the_master_fails(self):
        search = INPUTS["repeat-protein"]
        comm = self._comm(search)
        session = TopAlignmentSession(search.sequence, search.exchange, search.gaps)

        def boom(task):
            raise RuntimeError("traceback exploded")

        session.state.accept_task = boom
        with pytest.raises(RuntimeError, match="traceback exploded"):
            MasterRunner(comm, session, search.k).run()
        assert comm.stops == 2

    def test_resumed_session_brings_slaves_up_to_date(self, tmp_path):
        """Checkpoint resume under the master policy: the slaves' empty
        triangle replicas get every restored acceptance before any task."""
        search = INPUTS["repeat-protein"]
        scoring = (search.exchange, search.gaps)
        first = TopAlignmentSession(search.sequence, *scoring)
        first.extend(2)
        save_checkpoint(first.state, tmp_path / "ckpt.npz")
        state = load_checkpoint(tmp_path / "ckpt.npz", search.sequence, *scoring)
        comm = self._comm(search)
        tops, _ = MasterRunner(comm, TopAlignmentSession.from_state(state), search.k).run()
        assert key(tops) == reference(search)
