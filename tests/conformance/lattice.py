"""The configuration lattice, its inputs, and the one oracle path.

A :class:`Search` is an input: a sequence, a scoring model, ``k`` and
``min_score``.  A :class:`Config` is one point of the lattice that runs
it: engine × lane work type × group × ``prune`` × state budget ×
policy.  :func:`check` runs the point and asserts the invariant the
whole repository rests on — the accepted tops are byte-equal to the
plainest run (``scalar``, ``group=1``, ``prune=False``), which
on short inputs is itself checked against the O(n⁴) algorithm — plus
``RunStats.cells`` equal to the cells the engine filled.

The fill-level checks below it (:func:`assert_rows_equal_scalar`,
:func:`assert_resumed_are_full`, :func:`assert_bounds_dominate`) hold
single engine batches to ``ScalarEngine`` and the bounds to the rows
they bound.  The strategies draw both; the named suites elsewhere in
``tests/`` call the same functions at fixed points.
"""

from __future__ import annotations

import dataclasses
import functools
import multiprocessing
import tempfile
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import strategies as st

from repro.align import (
    ENGINE_NAMES,
    AlignmentEngine,
    AlignmentProblem,
    LanesEngine,
    Resume,
    ScalarEngine,
    get_engine,
)
from repro.align.matrix import full_matrix
from repro.align.rowstep import SNAPSHOT_ROWS
from repro.align.traceback import traceback
from repro.core import (
    TopAlignmentSession,
    TopAlignmentState,
    find_top_alignments,
    old_find_top_alignments,
    save_checkpoint,
    topalign,
)
from repro.core.checkpoint import restore_checkpoint
from repro.core.override import DenseOverrideTriangle
from repro.core.tasks import Task
from repro.parallel import MasterRunner, SlaveConfig, ThreadedTopAlignmentRunner, World
from repro.parallel.master import T_ALIGN, T_MARK, T_ROW, T_STOP
from repro.parallel.msgpass import ANY, Message
from repro.parallel.slave import slave_main
from repro.scoring import ExchangeMatrix, GapPenalties, blosum62, match_mismatch
from repro.sequences import DNA, PROTEIN, Sequence
from tests.conftest import TINY_STATE_BYTES, brute_force_matrix

#: Searches up to this length are also run by the O(n⁴) algorithm.
OLD_MAX_LENGTH = 24

DNA_LETTERS = "ACGT"
PROTEIN_LETTERS = "ARNDCQEGHILKMFPSTWYV"


def key(alignments) -> list:
    """What "byte-equal tops" compares."""
    return [(a.index, a.r, a.score, a.pairs) for a in alignments]


# -- inputs ------------------------------------------------------------------


@dataclass(frozen=True)
class Scoring:
    """``matrix`` is ``"match"`` (+``match`` on equal residues,
    ``mismatch`` otherwise, wildcards included), ``"blosum62"``, or
    ``"drawn"``: a symmetric integer matrix drawn from ``seed``."""

    matrix: str = "match"
    match: float = 2.0
    mismatch: float = -1.0
    gap_open: float = 2.0
    gap_extend: float = 1.0
    seed: int = 0


#: Realistic protein scoring: BLOSUM62, gap open 8, extend 1.
BLOSUM62 = Scoring("blosum62", gap_open=8.0, gap_extend=1.0)


@dataclass(frozen=True)
class Search:
    """One input: residue text, its alphabet, scoring, ``k``, ``min_score``."""

    text: str
    protein: bool = False
    scoring: Scoring = Scoring()
    k: int = 4
    min_score: float = 0.0

    @functools.cached_property
    def sequence(self) -> Sequence:
        return Sequence(self.text, PROTEIN if self.protein else DNA)

    @functools.cached_property
    def exchange(self):
        s = self.scoring
        alphabet = PROTEIN if self.protein else DNA
        if s.matrix == "blosum62":
            return blosum62()
        if s.matrix == "drawn":
            rng = np.random.default_rng(s.seed)
            scores = rng.integers(-4, 3, size=(alphabet.size, alphabet.size))
            scores = np.triu(scores) + np.triu(scores, 1).T
            np.fill_diagonal(scores, rng.integers(1, 7, size=alphabet.size))
            return ExchangeMatrix(f"drawn-{s.seed}", alphabet, scores)
        return match_mismatch(alphabet, s.match, s.mismatch, wildcard_score=None)

    @property
    def gaps(self) -> GapPenalties:
        return GapPenalties(self.scoring.gap_open, self.scoring.gap_extend)


@st.composite
def texts(draw, letters: str, max_size: int = 40) -> str:
    """Random, implanted, tandem or low-complexity text over a few of
    ``letters`` (few letters: repeats abound)."""
    pool = draw(st.lists(st.sampled_from(letters), min_size=1, max_size=4, unique=True))
    letter = st.sampled_from(pool)
    shape = draw(st.sampled_from(["random", "tandem", "implanted", "low"]))
    if shape == "random":
        text = draw(st.lists(letter, min_size=2, max_size=max_size))
    elif shape == "low":
        runs = draw(st.lists(st.tuples(letter, st.integers(1, 12)), min_size=1, max_size=5))
        text = [c for c, n in runs for _ in range(n)]
    else:
        unit = draw(st.lists(letter, min_size=1, max_size=10))
        text = unit * draw(st.integers(2, 5))
        if shape == "implanted":
            for at, c in draw(st.lists(st.tuples(st.integers(0, 99), letter), max_size=3)):
                text[at % len(text)] = c
            text = (
                draw(st.lists(letter, max_size=8))
                + text
                + draw(st.lists(letter, max_size=8))
            )
    text = text[:max_size]
    return "".join(text + pool[:1] * (2 - len(text)))


_INTEGRAL_GAPS = st.tuples(st.integers(0, 8), st.integers(0, 3))
_FRACTIONAL_GAPS = st.sampled_from([(2.5, 1.0), (7.5, 0.5), (2.0, 0.5)])


@st.composite
def scorings(draw, protein: bool) -> Scoring:
    """Integral match/mismatch, BLOSUM62 (protein), drawn symmetric
    matrices, fractional gap penalties, and matches near and past int16's
    and int32's bounds."""
    kinds = ["integral", "fractional", "saturating", "drawn"] + ["blosum62"] * protein
    kind = draw(st.sampled_from(kinds))
    if kind == "drawn":
        gaps = draw(st.tuples(st.integers(0, 8), st.integers(0, 2)))
        return Scoring("drawn", 0.0, 0.0, *map(float, gaps), draw(st.integers(0, 2**32 - 1)))
    if kind == "saturating":
        match = draw(st.sampled_from([1258, 1259, 2500, 9000, 30000, 41_300_000]))
        return Scoring("match", float(match), -1.0, 2.0, 1.0)
    gaps = draw(_FRACTIONAL_GAPS if kind == "fractional" else _INTEGRAL_GAPS)
    if kind == "blosum62":
        gaps = draw(st.sampled_from([(8, 1), gaps]))
        return Scoring("blosum62", 0.0, 0.0, *map(float, gaps))
    match = draw(st.integers(1, 6))
    mismatch = draw(st.integers(-5, 0))
    return Scoring("match", float(match), float(mismatch), *map(float, gaps))


@st.composite
def searches(draw, max_size: int = 40, max_k: int = 8) -> Search:
    protein = draw(st.booleans())
    text = draw(texts(PROTEIN_LETTERS if protein else DNA_LETTERS, max_size))
    scoring = draw(scorings(protein))
    unit = scoring.match if scoring.matrix == "match" else 3.0
    return Search(
        text,
        protein,
        scoring,
        k=draw(st.integers(1, max_k)),
        min_score=draw(st.sampled_from([0, 0, 1, 3, 6])) * unit,
    )


# -- the lattice -------------------------------------------------------------

#: The dispatch policies of one session: inline, §4.2 threads, §4.3
#: master + slaves, stopped and resumed from a checkpoint, and two
#: ``extend`` calls.
POLICIES = ("inline", "threads", "master", "checkpoint", "extend")
#: Requested lane work types (``None``: the engine table's own).
DTYPES = (None, "int16", "int32", "float64")


@dataclass(frozen=True)
class Config:
    """One point of the lattice.

    ``width`` is the thread count (``threads``) or the slaves' thread
    count and capacity (``master``); ``at`` is where ``checkpoint`` and
    ``extend`` stop the run; ``world`` forks real slave processes
    instead of serving them in-process.
    """

    engine: str = "lanes"
    dtype: str | None = None
    group: int = 8
    prune: bool = True
    tiny: bool = False
    policy: str = "inline"
    width: int = 2
    at: int = 1
    world: bool = False

    def make_engine(self) -> AlignmentEngine:
        if self.dtype is None:
            return get_engine(self.engine)
        return LanesEngine(lanes=self.group, dtype=self.dtype)


@st.composite
def configs(draw) -> Config:
    """A lattice point; each axis shrinks toward its plainest value."""
    engine = draw(st.sampled_from(ENGINE_NAMES))
    return Config(
        engine=engine,
        dtype=draw(st.sampled_from(DTYPES)) if engine == "lanes" else None,
        group=draw(st.sampled_from([1, 2, 4, 8])),
        prune=draw(st.booleans()),
        tiny=draw(st.booleans()),
        policy=draw(st.sampled_from(POLICIES)),
        width=draw(st.integers(1, 4)),
        at=draw(st.integers(1, 8)),
    )


class CountingEngine(AlignmentEngine):
    """Delegates to ``inner`` and adds up, after every batch, each
    problem's ``cells`` (the benchmark's ``TracedEngine`` rule) and its
    whole matrix, into counters that forked slaves share.  ``last_row``
    is the invariant sweeps' path, not the search's, and counts nothing.
    """

    def __init__(self, inner: AlignmentEngine) -> None:
        self.inner, self.name = inner, inner.name
        fork = multiprocessing.get_context("fork")
        self._cells, self._matrices = fork.Value("q", 0), fork.Value("q", 0)

    @property
    def cells(self) -> int:
        return self._cells.value

    @property
    def matrices(self) -> int:
        return self._matrices.value

    def describe(self) -> str:
        return self.inner.describe()

    def last_row(self, problem):
        return self.inner.last_row(problem)

    def last_rows_batch(self, problems):
        rows = self.inner.last_rows_batch(problems)
        with self._cells.get_lock():
            self._cells.value += sum(p.cells for p in problems)
            self._matrices.value += sum(p.rows * p.cols for p in problems)
        return rows


class InProcessSlaves:
    """A communicator whose slaves run synchronously in-process.

    ``T_ALIGN`` is served at once — one engine batch on a triangle
    replica, as :func:`~repro.parallel.slave.slave_main` serves it — and
    queued as a ``T_ROW`` reply; ``T_MARK`` updates the replica; ``recv``
    pops replies.  A request for a triangle version the replica has not
    reached (a mark sent too late) fails at once.
    """

    def __init__(self, codes, exchange, gaps, n_slaves=2, engine=None):
        self.rank, self.size = 0, n_slaves + 1
        self._codes, self._exchange, self._gaps = codes, exchange, gaps
        self._engine = engine if engine is not None else get_engine("vector")
        self._triangles = {
            rank: DenseOverrideTriangle(codes.size) for rank in range(1, self.size)
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
            problems = []
            for r, with_override in splits:
                self.align_requests.append((dest, r, version))
                problems.append(
                    AlignmentProblem(
                        self._codes[:r],
                        self._codes[r:],
                        self._exchange,
                        self._gaps,
                        triangle.view_for_split(r) if with_override else None,
                    )
                )
            rows = self._engine.last_rows_batch(problems)
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
        for at, msg in enumerate(self._pending):
            if source in (ANY, msg.source) and tag in (ANY, msg.tag):
                return self._pending.pop(at)
        raise TimeoutError("no pending message (protocol deadlock)")


def _master(session, search, config):
    state = session.state
    if not config.world:
        comm = InProcessSlaves(state.codes, state.exchange, state.gaps, engine=state.engine)
        return MasterRunner(comm, session, search.k, slave_capacity=config.width).run()
    slaves = SlaveConfig(
        codes=state.codes.tobytes(),
        m=state.m,
        exchange=state.exchange,
        gaps=state.gaps,
        engine=state.engine,  # forked: each slave runs a copy
        n_threads=config.width,
    )
    with World(3) as world:
        world.start(slave_main, slaves)
        return MasterRunner(
            world.comm, session, search.k, slave_capacity=config.width
        ).run()


def _state(search: Search, config: Config, engine: AlignmentEngine) -> TopAlignmentState:
    return TopAlignmentState(
        search.sequence, search.exchange, search.gaps, engine=engine, prune=config.prune
    )


@dataclass
class Outcome:
    """What a lattice point produced; ``cells`` and ``tracebacks`` add up
    every state the run went through (two across a checkpoint)."""

    session: TopAlignmentSession
    engine: CountingEngine
    cells: int
    tracebacks: int
    restored: int = 0

    @property
    def tops(self):
        return self.session.alignments


def run(search: Search, config: Config) -> Outcome:
    """Run ``search`` at lattice point ``config``."""
    engine = CountingEngine(config.make_engine())
    budget = TINY_STATE_BYTES if config.tiny else topalign.STATE_BYTES
    with mock.patch.object(topalign, "STATE_BYTES", budget):
        state = _state(search, config, engine)
        session = TopAlignmentSession.from_state(
            state, group=config.group, min_score=search.min_score
        )
        k, at = search.k, min(config.at, search.k)
        if config.policy == "threads":
            ThreadedTopAlignmentRunner(session, k, n_threads=config.width).run()
        elif config.policy == "master":
            _master(session, search, config)
        else:
            session.extend(at if config.policy != "inline" else k)
        if config.policy == "checkpoint":
            first = state
            with tempfile.TemporaryDirectory() as tmp:
                save_checkpoint(first, Path(tmp) / "search.ckpt")
                state = _state(search, config, engine)
                restore_checkpoint(state, Path(tmp) / "search.ckpt")
            session = TopAlignmentSession.from_state(
                state, group=config.group, min_score=search.min_score
            )
            if len(session) < k:
                session.extend(k - len(session))
            return Outcome(
                session,
                engine,
                first.stats.cells + state.stats.cells,
                state.stats.tracebacks,
                restored=first.n_found,
            )
        if config.policy == "extend" and at < k:
            session.extend(k - at)
    return Outcome(session, engine, state.stats.cells, state.stats.tracebacks)


@functools.lru_cache(maxsize=512)
def reference(search: Search) -> list:
    """The plainest run's tops, checked against the O(n⁴) algorithm on
    short inputs and for the shape every top list has."""
    args = (search.sequence, search.k, search.exchange, search.gaps)
    tops, _ = find_top_alignments(
        *args, engine="scalar", group=1, prune=False, min_score=search.min_score
    )
    if len(search.text) <= OLD_MAX_LENGTH:
        old, _ = old_find_top_alignments(
            *args, engine="scalar", min_score=search.min_score
        )
        assert key(old) == key(tops), "the O(n^3) search differs from the O(n^4) one"
    assert_well_formed(tops, len(search.text), search.min_score)
    return key(tops)


def assert_well_formed(tops, m: int, min_score: float = 0.0) -> None:
    """Scores above the floor and non-increasing; pairs disjoint, inside
    their split, strictly increasing on both axes, ending in the bottom row."""
    seen: set = set()
    previous = float("inf")
    for index, top in enumerate(tops):
        assert top.index == index
        assert min_score < top.score <= previous
        previous = top.score
        assert not seen & set(top.pairs)
        seen.update(top.pairs)
        ys, xs = zip(*top.pairs)
        assert 1 <= ys[0] and ys[-1] == top.r < xs[0] and xs[-1] <= m
        assert all(a < b for a, b in zip(ys, ys[1:]))
        assert all(a < b for a, b in zip(xs, xs[1:]))


def check(search: Search, config: Config) -> Outcome:
    """Run ``config`` and assert the invariant; returns what it produced."""
    expected = reference(search)
    out = run(search, config)
    assert key(out.tops) == expected, config
    assert out.cells == out.engine.cells
    assert out.tracebacks == len(out.tops) - out.restored
    if len(out.tops) < search.k:
        assert out.session.exhausted
    return out


# -- single fills ------------------------------------------------------------


def assert_rows_equal_scalar(engine: AlignmentEngine, problems) -> list:
    """One batch of ``engine`` leaves every problem's bottom row byte-equal
    to ``ScalarEngine`` on it alone; returns the rows."""
    rows = engine.last_rows_batch(problems)
    scalar = ScalarEngine()
    for problem, row in zip(problems, rows):
        assert row.tobytes() == scalar.last_row(problem).tobytes()
    return rows


def _exact(values) -> bytes:
    """Saved rows as bytes of one type: fills packed differently may
    keep them in different (exact) work types."""
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_resumed_are_full(state, engine, problems, rows) -> None:
    """Each of ``problems`` (realignments) was filled from its resume row
    into the matching row of ``rows``: the same bottom row and saved rows
    as a fill from the top (one batch of them), and only the rows below
    the resume row counted."""
    resumed = [(p, row) for p, row in zip(problems, rows) if p.resume.start]
    fulls = [state.problem_for(p.rows, resume=Resume()) for p, _ in resumed]
    for (problem, row), full, full_row in zip(
        resumed, fulls, engine.last_rows_batch(fulls)
    ):
        r, start = problem.rows, problem.resume.start
        assert row.tobytes() == full_row.tobytes()
        above = start // SNAPSHOT_ROWS
        saved = full.resume.snapshots
        assert _exact(problem.resume.snapshots) == _exact(saved[above:])
        # The rows it resumed from are the state's, saved under older
        # triangles: the stamp rule says they still hold.
        assert _exact(state.snapshots[r][1][:above]) == _exact(saved[:above])
        assert problem.cells == (r - start) * problem.cols


def first_rows(state) -> list:
    """Every split's first-pass bottom row, by ``ScalarEngine``."""
    scalar = ScalarEngine()
    return [
        scalar.last_row(state.problem_for(r, with_override=False))
        for r in range(1, state.m)
    ]


def assert_bounds_dominate(state, bounds, firsts) -> None:
    """Each split's starting bound is at least its valid score under the
    live triangle: the first pass before any acceptance, the fresh row's
    non-shadow cells after."""
    scalar = ScalarEngine()
    for r, first in enumerate(firsts, start=1):
        fresh = scalar.last_row(state.problem_for(r)) if state.n_found else first
        valid = fresh[fresh == first]
        assert bounds[r - 1] >= (valid.max() if valid.size else 0.0), r


#: A batch, drawn before the search it is cut from: ``(kind, a, b)``
#: picks split ``a`` (modulo the splits) as a realignment (a first pass
#: if it was never filled), a first pass, or the block problem of splits
#: ``a`` up to ``b``; the flag keeps the shared profile.
batches = st.tuples(
    st.lists(
        st.tuples(
            st.sampled_from(["split", "first", "block"]),
            st.integers(1, 64),
            st.integers(1, 64),
        ),
        max_size=10,
    ),
    st.booleans(),
)


def _batch(state, picks, shared) -> list:
    m, problems = state.m, []
    for kind, a, b in picks:
        r = 1 + (a - 1) % (m - 1)
        if kind == "split":
            problems += state.problems_for([Task(r)])
        elif kind == "first":
            problems.append(state.problem_for(r, with_override=False))
        else:
            problems.append(state.block_problem(r, r + 1 + (b - 1) % (m - r)))
    if not shared:
        problems = [dataclasses.replace(p, profile=None) for p in problems]
    return problems


def _check_batch(state, engine, problems) -> None:
    rows = assert_rows_equal_scalar(engine, problems)
    for problem in problems:
        gate = problem.prune
        if gate is not None:
            maxima = brute_force_matrix(problem)[gate.first : gate.stop].max(axis=1)
            assert gate.bounds.tolist() == maxima.tolist()
    resumed = [(p, row) for p, row in zip(problems, rows) if p.resume is not None]
    if resumed:
        assert_resumed_are_full(state, engine, *zip(*resumed))


def checked_traceback(seen: list | None = None):
    """A stand-in for an acceptance's traceback that also runs it on the
    whole matrix and demands the same path, and the rows it filled from
    saved rows equal to the whole's; each call appends ``(first rows
    filled, rows)`` to ``seen``."""

    def traced(problem, matrix, end_y, end_x, *, top=0, extend=None):
        tops = [top]

        def climbing():
            tops.append(extend())
            return tops[-1]

        path = traceback(
            problem, matrix, end_y, end_x, top=top, extend=climbing if extend else None
        )
        whole = full_matrix(problem)[:, : matrix.shape[1]]
        assert path == traceback(problem, whole, end_y, end_x)
        assert matrix[tops[-1] :].tobytes() == whole[tops[-1] :].tobytes()
        if seen is not None:
            seen.append((tops, problem.rows))
        return path

    return traced


def check_fills(search, engine, *, group=8, width=None, tiny=False, batch=((), True)):
    """Drive ``search`` one acceptance at a time on ``engine`` and check
    the fills in between: the block bounds (``width`` splits a block;
    ``None``: one block) dominate every valid score; every split with
    saved rows resumes to the rows a fill from the top leaves; the
    ``batch`` (:data:`batches`) cut from the live state fills byte-equal
    to ``ScalarEngine``; and each traceback follows the whole matrix."""
    budget = TINY_STATE_BYTES if tiny else topalign.STATE_BYTES
    with (
        mock.patch.object(topalign, "STATE_BYTES", budget),
        mock.patch.object(topalign, "traceback", checked_traceback()),
    ):
        state = TopAlignmentState(
            search.sequence, search.exchange, search.gaps, engine=engine
        )
        with mock.patch.object(topalign, "BLOCK_SPLITS", width or state.m):
            bounds = np.array([task.score for task in state.make_tasks()])
        firsts = first_rows(state)
        assert_bounds_dominate(state, bounds, firsts)
        if width == 1:
            assert bounds.tolist() == [row.max() for row in firsts]
        session = TopAlignmentSession.from_state(state, group=group)
        while True:
            if batch[0]:
                _check_batch(state, engine, _batch(state, *batch))
            problems = state.problems_for([Task(r) for r in sorted(state.snapshots)])
            rows = engine.last_rows_batch(problems)
            assert_resumed_are_full(state, engine, problems, rows)
            if len(session) == search.k or not session.extend(1):
                return state
            assert_bounds_dominate(state, bounds, firsts)
