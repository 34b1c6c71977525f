"""Policy conformance: one best-first search, every way of running it.

The inline loop, the §4.2 thread scheduler and the §4.3 master/slave
protocol are dispatch policies of one
:class:`~repro.core.session.TopAlignmentSession`.  Whatever the policy,
lane width, pruning, heap seeding and state budget, the accepted tops
must be byte-equal to the plainest run there is: ``engine="scalar"``,
``group=1``, ``prune=False``, no seeds.  The tiny budget
(``tests.conftest.TINY_STATE_BYTES``) makes every state spill: a sparse
triangle, bottom rows evicted and refilled, saved rows dropped.

Whatever the policy, ``RunStats.cells`` is also the cells the engines
filled: the realignments that resumed from a saved row count only the
rows below it, the master/slave policy, whose slaves rebuild their
problems without the request, counts whole matrices, and a state that
spills counts every row it refills.

Also green under ``REPRO_CHECK_INVARIANTS=full``.
"""

import functools
import multiprocessing
import sys
import threading

import pytest

from repro.align import AlignmentEngine, get_engine
from repro.core import (
    TopAlignmentSession,
    TopAlignmentState,
    find_top_alignments,
    load_checkpoint,
    save_checkpoint,
)
from repro.core.override import SparseOverrideTriangle
from repro.index import seed_score_bounds
from repro.parallel import MasterRunner, SlaveConfig, ThreadedTopAlignmentRunner, World
from repro.parallel.slave import slave_main
from repro.scoring import GapPenalties, blosum62, match_mismatch
from repro.sequences import DNA, RepeatSpec, Sequence, implant_repeats
from repro.sequences import tandem_repeat_sequence
from tests.conftest import shrink_state_budget
from tests.parallel.test_master_logic import FakeSlaveComm


def _key(alignments):
    return [(a.index, a.r, a.score, a.pairs) for a in alignments]


_DNA_SCORING = (match_mismatch(DNA, 2.0, -1.0), GapPenalties(2.0, 1.0))

#: name -> (sequence, k, (exchange, gaps)); "exhausting" asks for far
#: more alignments than the sequence holds.
INPUTS = {
    "tandem-dna": (Sequence("ATGCATGCATGC", DNA, id="fig4"), 3, _DNA_SCORING),
    "repeat-protein": (
        implant_repeats(
            120, RepeatSpec(unit_length=25, copies=3, substitution_rate=0.3), seed=7
        ).sequence,
        6,
        (blosum62(), GapPenalties(8.0, 1.0)),
    ),
    "exhausting": (tandem_repeat_sequence("ACG", 3), 50, _DNA_SCORING),
}


@functools.lru_cache(maxsize=None)
def _reference(name):
    sequence, k, (exchange, gaps) = INPUTS[name]
    tops, _ = find_top_alignments(
        sequence, k, exchange, gaps, engine="scalar", group=1, prune=False
    )
    return _key(tops)


def _inline(session, k, _sequence, _scoring):
    session.extend(k)
    return session.alignments


def _threads(n_threads):
    def run(session, k, _sequence, _scoring):
        return ThreadedTopAlignmentRunner(session, k, n_threads=n_threads).run()[0]

    return run


def _master(threads_per_slave):
    def run(session, k, sequence, scoring):
        config = SlaveConfig(
            codes=sequence.codes.tobytes(),
            m=len(sequence),
            exchange=scoring[0],
            gaps=scoring[1],
            engine=session.state.engine,  # forked: each slave runs a copy
            n_threads=threads_per_slave,
        )
        with World(3) as world:
            world.start(slave_main, config)
            runner = MasterRunner(
                world.comm, session, k, slave_capacity=threads_per_slave
            )
            return runner.run()[0]

    return run


#: id -> (lane width of the session, how to run it to k)
POLICIES = {
    "inline-g1": (1, _inline),
    "inline-g8": (8, _inline),
    "threads-1": (8, _threads(1)),
    "threads-2": (8, _threads(2)),
    "threads-4": (1, _threads(4)),
    "master-2x1": (8, _master(1)),
    "master-2x2": (1, _master(2)),
}


@pytest.mark.parametrize("budget", ["default", "tiny"])
@pytest.mark.parametrize("name", INPUTS)
@pytest.mark.parametrize("seeded", [False, True], ids=["unseeded", "seeded"])
@pytest.mark.parametrize("prune", [True, False], ids=["prune", "noprune"])
@pytest.mark.parametrize("policy", POLICIES)
def test_tops_equal_the_plain_sequential_run(
    policy, prune, seeded, name, budget, monkeypatch
):
    sequence, k, scoring = INPUTS[name]
    group, run = POLICIES[policy]
    _reference(name)  # cached under the default budget
    if budget == "tiny":
        shrink_state_budget(monkeypatch)
    state = TopAlignmentState(
        sequence,
        *scoring,
        seed_bounds=seed_score_bounds(sequence, scoring[0]) if seeded else None,
        prune=prune,
    )
    session = TopAlignmentSession.from_state(state, group=group)
    assert _key(run(session, k, sequence, scoring)) == _reference(name)
    assert session.stats.tracebacks == len(session)
    if name == "exhausting":
        assert session.exhausted and len(session) < k
    if budget == "tiny":
        assert isinstance(state.triangle, SparseOverrideTriangle)
        # Master slaves save no rows; every other policy's must spill.
        if name == "repeat-protein" and not policy.startswith("master"):
            assert state.snapshots_dropped > 0


class _CountingEngine(AlignmentEngine):
    """Delegates to ``inner`` and adds up, after every batch, each
    problem's ``cells`` — the benchmark's ``TracedEngine`` rule — and its
    whole matrix, into counters that forked slaves share.  ``last_row``
    is the invariant sweeps' path, not the search's, and counts nothing.
    """

    def __init__(self, inner: AlignmentEngine) -> None:
        self.inner, self.name = inner, inner.name
        fork = multiprocessing.get_context("fork")
        self.cells, self.matrices = fork.Value("q", 0), fork.Value("q", 0)

    def last_row(self, problem):
        return self.inner.last_row(problem)

    def last_rows_batch(self, problems):
        rows = self.inner.last_rows_batch(problems)
        with self.cells.get_lock():
            self.cells.value += sum(p.cells for p in problems)
            self.matrices.value += sum(p.rows * p.cols for p in problems)
        return rows


@pytest.mark.parametrize("name", INPUTS)
@pytest.mark.parametrize("policy", POLICIES)
def test_cells_are_the_cells_the_engine_filled(policy, name, monkeypatch):
    """Under the default budget, and then under the tiny one, where the
    bottom rows a realignment needs are refilled."""
    sequence, k, scoring = INPUTS[name]
    group, run = POLICIES[policy]
    _reference(name)
    for spill in (False, True):
        if spill:
            shrink_state_budget(monkeypatch)
        engine = _CountingEngine(get_engine("lanes"))
        state = TopAlignmentState(sequence, *scoring, engine=engine)
        session = TopAlignmentSession.from_state(state, group=group)
        assert _key(run(session, k, sequence, scoring)) == _reference(name)
        assert session.stats.cells == engine.cells.value
        if policy.startswith("master"):
            assert engine.cells.value == engine.matrices.value
        elif name == "repeat-protein" and not spill:  # some resume
            assert engine.cells.value < engine.matrices.value
        assert (state.bottom_rows.refills > 0) == spill


def test_min_score_floor_under_every_policy():
    """A floor arms pruning's in-fill gates and the exhaustion rule's
    in-flight clause; the tops above it must not move."""
    sequence, _, scoring = INPUTS["repeat-protein"]
    expected, _ = find_top_alignments(
        sequence, 30, *scoring, engine="scalar", group=1, prune=False, min_score=25.0
    )
    assert 0 < len(expected) < 30
    for policy, (group, run) in POLICIES.items():
        session = TopAlignmentSession(sequence, *scoring, group=group, min_score=25.0)
        assert _key(run(session, 30, sequence, scoring)) == _key(expected), policy
        assert session.exhausted


class TestThreadedPolicy:
    def test_worker_errors_propagate(self):
        sequence, _, scoring = INPUTS["repeat-protein"]
        session = TopAlignmentSession(sequence, *scoring)

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
        sequence, k, scoring = INPUTS["repeat-protein"]
        first = TopAlignmentSession(sequence, *scoring)
        ThreadedTopAlignmentRunner(first, 2, n_threads=3).run()
        assert len(first) == 2
        save_checkpoint(first.state, tmp_path / "ckpt.npz")

        state = load_checkpoint(tmp_path / "ckpt.npz", sequence, *scoring)
        resumed = TopAlignmentSession.from_state(state)
        tops, stats = ThreadedTopAlignmentRunner(resumed, k, n_threads=3).run()
        assert _key(tops) == _reference("repeat-protein")
        assert stats.tracebacks == k - 2

    def test_extend_after_a_threaded_run_continues_it(self):
        """The policies share one session: hand it from threads to the
        inline loop mid-search."""
        sequence, k, scoring = INPUTS["repeat-protein"]
        session = TopAlignmentSession(sequence, *scoring)
        ThreadedTopAlignmentRunner(session, 3, n_threads=2).run()
        session.extend(k - 3)
        assert _key(session.alignments) == _reference("repeat-protein")

    def test_stress_more_threads_than_cores(self):
        """Lost updates under contention would break in-flight dominance
        (a wrong top) or strand a task (a hang)."""
        sequence, k, scoring = INPUTS["repeat-protein"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(3):
                session = TopAlignmentSession(sequence, *scoring, group=2)
                runner = ThreadedTopAlignmentRunner(session, k, n_threads=16)
                worker = threading.Thread(target=runner.run)
                worker.start()
                worker.join(timeout=60)
                assert not worker.is_alive()
                assert _key(session.alignments) == _reference("repeat-protein")
        finally:
            sys.setswitchinterval(interval)


class TestMasterPolicy:
    def _comm(self, name, n_slaves=2):
        sequence, _, (exchange, gaps) = INPUTS[name]
        return FakeSlaveComm(sequence.codes, exchange, gaps, n_slaves=n_slaves)

    @pytest.mark.parametrize("name", ["repeat-protein", "exhausting"])
    def test_every_slave_stopped_when_the_search_ends(self, name):
        """``k`` reached, and exhausted first."""
        sequence, k, scoring = INPUTS[name]
        comm = self._comm(name)
        session = TopAlignmentSession(sequence, *scoring)
        tops, _ = MasterRunner(comm, session, k).run()
        assert _key(tops) == _reference(name)
        assert comm.stops == 2

    def test_every_slave_stopped_when_the_master_fails(self):
        sequence, k, scoring = INPUTS["repeat-protein"]
        comm = self._comm("repeat-protein")
        session = TopAlignmentSession(sequence, *scoring)

        def boom(task):
            raise RuntimeError("traceback exploded")

        session.state.accept_task = boom
        with pytest.raises(RuntimeError, match="traceback exploded"):
            MasterRunner(comm, session, k).run()
        assert comm.stops == 2

    def test_resumed_session_brings_slaves_up_to_date(self, tmp_path):
        """Checkpoint resume under the master policy: the slaves' empty
        triangle replicas get every restored acceptance before any task."""
        sequence, k, scoring = INPUTS["repeat-protein"]
        first = TopAlignmentSession(sequence, *scoring)
        first.extend(2)
        save_checkpoint(first.state, tmp_path / "ckpt.npz")
        state = load_checkpoint(tmp_path / "ckpt.npz", sequence, *scoring)
        comm = self._comm("repeat-protein")
        tops, _ = MasterRunner(comm, TopAlignmentSession.from_state(state), k).run()
        assert _key(tops) == _reference("repeat-protein")
