"""Resumed fills: a realignment that starts from a saved row is the full fill.

An acceptance marks cells of split ``r`` only in the rows from its
first pair's row ``i_min`` down, and Equation 1 looks only up and to
the left, so a realignment may skip every row above the first one an
acceptance since its saved rows changed
(:meth:`TopAlignmentState.problems_for`).  After every acceptance of a
random search, each filled split's resumed fill must leave the bottom
row and the saved rows a fill from the top leaves, byte for byte — for
every work type, ``lanes`` and ``vector``, and lanes of different start
rows packed with first passes in one batch.
``scalar`` ignores the request and counts the whole matrix.  An
acceptance's traceback, filled upward from the same saved rows, must
follow the path it follows on the whole matrix.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import (
    AlignmentEngine,
    LanesEngine,
    Resume,
    ScalarEngine,
    VectorEngine,
)
from repro.align.matrix import full_matrix
from repro.align.rowstep import SNAPSHOT_ROWS
from repro.align.traceback import traceback
from repro.analysis.invariants import (
    RESUMED_STRIDE,
    InvariantChecker,
    InvariantViolation,
)
from repro.core import (
    TopAlignmentState,
    find_top_alignments,
    load_checkpoint,
    save_checkpoint,
    topalign,
)
from repro.core.session import TopAlignmentSession
from repro.core.tasks import Task
from repro.scoring import GapPenalties, blosum62, match_mismatch
from repro.sequences import DNA, PROTEIN, Sequence, pseudo_titin

#: id -> engine factory: every work type of the lane engine, and vector.
ENGINES = {
    "lanes-int16": lambda: LanesEngine(lanes=8, dtype="int16"),
    "lanes-int32": lambda: LanesEngine(lanes=8, dtype="int32"),
    "lanes-float64": lambda: LanesEngine(lanes=8, dtype="float64"),
    "vector": VectorEngine,
}


def _exact(values) -> bytes:
    """Saved rows as bytes of one type: fills packed differently may
    keep them in different (exact) work types."""
    return np.asarray(values, dtype=np.float64).tobytes()


def _tandem_sequence(data, protein: bool) -> tuple[Sequence, tuple]:
    """Noisy tandem copies between random flanks, long enough that
    acceptances start below the first saved rows."""
    if protein:
        nsym, alphabet = 20, PROTEIN
        # Half-integral gaps run (and save rows) in float64 whatever the
        # requested work type.
        gaps = data.draw(
            st.sampled_from([GapPenalties(8.0, 1.0), GapPenalties(7.5, 0.5)])
        )
        scoring = (blosum62(), gaps)
    else:
        nsym, alphabet = 4, DNA
        scoring = (match_mismatch(DNA, 2.0, -1.0), GapPenalties(2.0, 1.0))
    unit = data.draw(st.lists(st.integers(0, nsym - 1), min_size=8, max_size=20))
    codes = data.draw(st.lists(st.integers(0, nsym - 1), max_size=20))
    for _ in range(data.draw(st.integers(3, 5))):
        codes = codes + [
            data.draw(st.integers(0, nsym - 1)) if data.draw(st.integers(0, 9)) == 0
            else c
            for c in unit
        ]
    codes += data.draw(st.lists(st.integers(0, nsym - 1), max_size=20))
    return Sequence(np.array(codes, dtype=np.int8), alphabet), scoring


def _from_the_top(state, engine, r, *, first_pass=False):
    """Split ``r`` filled from row 0 under the current triangle (or, for
    a first pass, none): ``(bottom row, saved rows)``."""
    problem = state.problem_for(r, with_override=not first_pass, resume=Resume())
    row = engine.last_rows_batch([problem])[0]
    return row, problem.resume.snapshots


def _assert_resumed_is_full(state, engine, problem, row):
    """``problem`` (split ``problem.rows``, a realignment) was filled
    from its resume row into ``row``."""
    r, start = problem.rows, problem.resume.start
    full_row, full_saved = _from_the_top(state, engine, r)
    assert row.tobytes() == full_row.tobytes()
    above = start // SNAPSHOT_ROWS
    assert _exact(problem.resume.snapshots) == _exact(full_saved[above:])
    # The rows it resumed from are the state's, saved under older
    # triangles: the stamp rule says they still hold.
    assert _exact(state.snapshots[r][1][:above]) == _exact(full_saved[:above])
    assert problem.cells == (r - start) * problem.cols


class TestResumedFill:
    @settings(max_examples=20, deadline=None)
    @given(
        data=st.data(),
        protein=st.booleans(),
        engine_id=st.sampled_from(sorted(ENGINES)),
    )
    def test_resumed_rows_equal_a_full_fill_after_every_acceptance(
        self, data, protein, engine_id
    ):
        sequence, scoring = _tandem_sequence(data, protein)
        engine = ENGINES[engine_id]()
        state = TopAlignmentState(sequence, *scoring, engine=engine)
        session = TopAlignmentSession.from_state(
            state, group=data.draw(st.sampled_from([1, 8]))
        )
        for _ in range(5):
            if not session.extend(1):
                break
            for r in sorted(state.snapshots):
                [problem] = state.problems_for([Task(r)])
                [row] = engine.last_rows_batch([problem])
                _assert_resumed_is_full(state, engine, problem, row)

        # One batch: every filled split at its own start row, packed with
        # first passes of splits no fill has touched yet.
        filled = sorted(state.snapshots)
        fresh = [r for r in range(1, state.m) if r not in state.bottom_rows][:4]
        batch = state.problems_for([Task(r) for r in filled + fresh])
        order = data.draw(st.permutations(range(len(batch))))
        rows = engine.last_rows_batch([batch[i] for i in order])
        by_problem = {i: row for i, row in zip(order, rows)}
        for i, problem in enumerate(batch):
            if i < len(filled):
                _assert_resumed_is_full(state, engine, problem, by_problem[i])
            else:
                row, saved = _from_the_top(state, engine, problem.rows, first_pass=True)
                assert by_problem[i].tobytes() == row.tobytes()
                assert _exact(problem.resume.snapshots) == _exact(saved)


def _traced_against_the_full_matrix(monkeypatch):
    """Make every acceptance also trace back on the whole matrix and
    demand the same path from the same rows; returns, per acceptance,
    ``(first row filled, rows)``."""
    seen = []

    def checked(problem, matrix, end_y, end_x, *, top=0, extend=None):
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
        seen.append((tops, problem.rows))
        return path

    monkeypatch.setattr(topalign, "traceback", checked)
    return seen


class TestResumedTraceback:
    @settings(max_examples=20, deadline=None)
    @given(
        data=st.data(),
        protein=st.booleans(),
        engine_id=st.sampled_from(sorted(ENGINES)),
    )
    def test_a_traceback_from_saved_rows_follows_the_full_matrix_path(
        self, data, protein, engine_id
    ):
        sequence, scoring = _tandem_sequence(data, protein)
        state = TopAlignmentState(sequence, *scoring, engine=ENGINES[engine_id]())
        with pytest.MonkeyPatch.context() as monkeypatch:
            _traced_against_the_full_matrix(monkeypatch)
            TopAlignmentSession.from_state(state).extend(5)

    def test_it_fills_only_the_rows_the_path_climbs_through(self, monkeypatch):
        seen = _traced_against_the_full_matrix(monkeypatch)
        state = _searched(length=400, k=20)
        assert len(seen) == 20
        assert all(tops[0] > 0 for tops, _ in seen)  # every split saved rows
        assert any(len(tops) > 1 for tops, _ in seen)  # some paths climb
        filled = sum(rows - tops[-1] for tops, rows in seen)
        assert filled < sum(rows for _, rows in seen) / 2
        assert state.stats.tracebacks == 20


def _searched(engine="lanes", length=200, k=8):
    sequence = pseudo_titin(length, seed=3)
    scoring = (blosum62(), GapPenalties(8.0, 1.0))
    state = TopAlignmentState(sequence, *scoring, engine=engine)
    TopAlignmentSession.from_state(state).extend(k)
    return state


class _Cells(AlignmentEngine):
    """Delegates to ``inner``; adds up ``problem.cells`` after each batch
    (the benchmark's ``TracedEngine`` rule) and the whole matrices.
    ``last_row`` is the invariant sweeps' path, not the search's."""

    def __init__(self, inner: AlignmentEngine) -> None:
        self.inner, self.name = inner, inner.name
        self.cells = self.matrices = 0

    def last_row(self, problem):
        return self.inner.last_row(problem)

    def last_rows_batch(self, problems):
        rows = self.inner.last_rows_batch(problems)
        self.cells += sum(p.cells for p in problems)
        self.matrices += sum(p.rows * p.cols for p in problems)
        return rows


class TestWhatIsCounted:
    def test_realignments_resume_and_count_only_the_rows_they_fill(self):
        sequence = pseudo_titin(200, seed=3)
        scoring = (blosum62(), GapPenalties(8.0, 1.0))
        engine = _Cells(LanesEngine(lanes=8))
        tops, stats = find_top_alignments(sequence, 8, *scoring, engine=engine)
        reference, _ = find_top_alignments(
            sequence, 8, *scoring, engine="scalar", group=1, prune=False
        )
        assert [(a.r, a.score, a.pairs) for a in tops] == [
            (a.r, a.score, a.pairs) for a in reference
        ]
        assert stats.cells == engine.cells < engine.matrices

    def test_scalar_ignores_the_request_and_counts_the_whole_matrix(self):
        state = _searched()
        resumed = [
            p for p in state.problems_for([Task(r) for r in state.snapshots])
            if p.resume.start
        ]
        assert resumed
        for problem in resumed:
            row = ScalarEngine().last_row(problem)
            assert problem.resume.snapshots is None
            assert problem.cells == problem.rows * problem.cols
            full_row, _ = _from_the_top(state, VectorEngine(), problem.rows)
            assert row.tobytes() == full_row.tobytes()
        scalar = _searched(engine="scalar")
        assert scalar.snapshots == {}

    def test_snapshots_stay_in_budget_and_narrow(self):
        state = _searched(length=400, k=20)
        held = list(state.snapshots.items())
        assert held and all(saved.dtype == np.int16 for _, (_, saved) in held)
        for r, (_, saved) in held:
            assert saved.shape == ((r - 1) // SNAPSHOT_ROWS, 2, state.m - r)
        assert sum(saved.nbytes for _, (_, saved) in held) <= 1.5e6

    def test_past_their_share_the_lowest_scoring_splits_drop_theirs(self):
        state = _searched(length=200, k=8)
        held = {r: saved.nbytes for r, (_, saved) in state.snapshots.items()}
        assert state.snapshot_bytes == sum(held.values())
        assert state.snapshots_dropped == 0
        scores = dict(state._snapshot_scores)
        # Half the bytes: the last-kept split stays whatever its score.
        keep = min(scores, key=scores.get)
        share = state.snapshot_bytes // 2
        state.shares = state.shares._replace(saved=share)
        state._drop_snapshots(keep=keep)
        assert keep in state.snapshots
        assert state.snapshot_bytes <= share
        dropped = set(held) - set(state.snapshots)
        assert state.snapshots_dropped == len(dropped) > 0
        kept = set(state.snapshots) - {keep}
        assert max(scores[r] for r in dropped) <= min(scores[r] for r in kept)
        # A split without saved rows realigns from row 0.
        r = min(dropped)
        assert state.problems_for([Task(r)])[0].resume.start == 0

    def test_a_search_past_its_share_keeps_the_tops(self, monkeypatch):
        """Dropping saved rows moves no count but the cells."""
        unbounded = _searched(length=200, k=8)
        monkeypatch.setattr(
            topalign, "STATE_BYTES", 2 * unbounded.snapshot_bytes // 3
        )
        state = _searched(length=200, k=8)
        assert state.snapshots_dropped > 0
        assert state.found == unbounded.found
        assert (state.stats.alignments, state.stats.realignments) == (
            unbounded.stats.alignments,
            unbounded.stats.realignments,
        )
        assert state.stats.cells > unbounded.stats.cells

    def test_checkpoints_keep_no_saved_rows(self, tmp_path):
        scoring = (blosum62(), GapPenalties(8.0, 1.0))
        state = _searched(length=120, k=3)
        assert state.snapshots
        save_checkpoint(state, tmp_path / "ckpt.npz")
        restored = load_checkpoint(tmp_path / "ckpt.npz", state.sequence, *scoring)
        assert restored.snapshots == {}


class TestInvariantChecker:
    def test_cheap_mode_rejects_a_resume_row_an_acceptance_changed(self):
        state = _searched()
        checker = InvariantChecker(state, "cheap")
        seeded = []
        for r, (stamp, saved) in sorted(state.snapshots.items()):
            changed = [lo for lo, hi in state.spans[stamp:] if lo <= r < hi]
            # The first saved row at or below the first changed row.
            grid = -(-min(changed, default=r) // SNAPSHOT_ROWS)
            if changed and grid <= len(saved):
                seeded.append((r, stamp, Resume(grid * SNAPSHOT_ROWS, saved[grid - 1])))
        assert seeded
        for r, stamp, too_deep in seeded:
            problem = state.problem_for(r, resume=too_deep)
            row = VectorEngine().last_row(problem)
            with pytest.raises(InvariantViolation, match="resume-row"):
                checker.after_resume(r, problem.resume, row, stamp, state.n_found)

    def test_full_mode_recomputes_a_sample_and_catches_bad_saved_rows(self):
        state = _searched()
        checker = InvariantChecker(state, "full")
        r = next(
            r for r in sorted(state.snapshots)
            if state.problems_for([Task(r)])[0].resume.start
        )
        [problem] = state.problems_for([Task(r)])
        stamp = state.snapshots[r][0]
        row = VectorEngine().last_row(problem)
        state.record_rows([Task(r)], [problem], [row], state.n_found, 0.0)
        for _ in range(RESUMED_STRIDE):  # a clean sample passes
            checker.after_resume(r, problem.resume, row, stamp, state.n_found)
        state.snapshots[r][1][0, 0, 0] += 1
        checker.resumed = RESUMED_STRIDE - 1
        with pytest.raises(InvariantViolation, match="from the top differs"):
            checker.after_resume(r, problem.resume, row, stamp, state.n_found)


def test_a_resume_row_needs_its_saved_vectors_and_a_row_below_it():
    state = _searched(length=60, k=1)
    vectors = np.zeros((2, state.m - 40))
    for bad in (Resume(16), Resume(16, vectors[:, 1:]), Resume(40, vectors)):
        with pytest.raises(ValueError, match="resume row"):
            state.problem_for(40, resume=bad)
    assert state.problem_for(40, resume=Resume(16, vectors)).resume_row == 16
