"""Resumed fills: a realignment that starts from a saved row is the full fill.

An acceptance marks cells of split ``r`` only in the rows from its
first pair's row ``i_min`` down, and Equation 1 looks only up and to
the left, so a realignment may skip every row above the first one an
acceptance since its saved rows changed
(:meth:`TopAlignmentState.problems_for`).  After every acceptance, each
filled split's resumed fill must leave the bottom row and the saved
rows a fill from the top leaves, byte for byte, and an acceptance's
traceback, filled upward from the same saved rows, must follow the path
it follows on the whole matrix.  The conformance harness draws that
(:func:`tests.conformance.lattice.check_fills`); below are its named
points — every work type, ``lanes`` and ``vector``, and lanes of
different start rows packed with first passes in one batch — and what
is counted.  ``scalar`` ignores the request and counts the whole matrix.
"""

import numpy as np
import pytest

from repro.align import LanesEngine, Resume, ScalarEngine, VectorEngine
from repro.align.rowstep import SNAPSHOT_ROWS
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
from repro.scoring import GapPenalties, blosum62
from repro.sequences import pseudo_titin
from tests.conformance.lattice import (
    BLOSUM62,
    CountingEngine,
    Scoring,
    Search,
    check_fills,
    checked_traceback,
    key,
)

#: id -> engine factory: every work type of the lane engine, and vector.
ENGINES = {
    "lanes-int16": lambda: LanesEngine(lanes=8, dtype="int16"),
    "lanes-int32": lambda: LanesEngine(lanes=8, dtype="int32"),
    "lanes-float64": lambda: LanesEngine(lanes=8, dtype="float64"),
    "vector": VectorEngine,
}

#: Noisy tandem copies between flanks, long enough that acceptances
#: start below the first saved rows; half-integral gaps run (and save
#: rows) in float64 whatever the requested work type.
_PROTEIN = "GHW" + "MKVLAYTRGD" + "MKVLSYTRGD" + "MKVLAYTRGE" + "MKWLAYTRGD" + "PQ"
_TANDEMS = [
    Search(_PROTEIN, True, BLOSUM62, k=5),
    Search(_PROTEIN, True, Scoring("blosum62", gap_open=7.5, gap_extend=0.5), k=5),
    Search("TTG" + "ACGTTGCAAC" + "ACGTAGCAAC" + "ACGTTGCATC" + "ACCTTGCAAC", k=5),
]


class TestResumedFill:
    def test_resumed_rows_equal_a_full_fill_after_every_acceptance(self):
        engines = list(ENGINES.values())
        for i, search in enumerate(_TANDEMS):
            m = len(search.text)
            # Every other split in one batch, deepest first: filled splits
            # at their own start rows, packed with first passes of others.
            batch = ([("split", r, 1) for r in range(m - 1, 0, -2)], True)
            for group, engine in zip((1, 8), engines[i % 2 :: 2]):
                check_fills(search, engine(), group=group, batch=batch)


class TestResumedTraceback:
    def test_a_traceback_from_saved_rows_follows_the_full_matrix_path(self):
        """Through the harness's traceback check, with the saved rows a
        search keeps and none."""
        for search in _TANDEMS:
            for tiny in (False, True):
                check_fills(search, LanesEngine(lanes=8), tiny=tiny)

    def test_it_fills_only_the_rows_the_path_climbs_through(self, monkeypatch):
        seen = []
        monkeypatch.setattr(topalign, "traceback", checked_traceback(seen))
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


class TestWhatIsCounted:
    def test_realignments_resume_and_count_only_the_rows_they_fill(self):
        sequence = pseudo_titin(200, seed=3)
        scoring = (blosum62(), GapPenalties(8.0, 1.0))
        engine = CountingEngine(LanesEngine(lanes=8))
        tops, stats = find_top_alignments(sequence, 8, *scoring, engine=engine)
        reference, _ = find_top_alignments(
            sequence, 8, *scoring, engine="vector", group=1, prune=False
        )
        assert key(tops) == key(reference)
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
            full = state.problem_for(problem.rows, resume=Resume())
            full_row = VectorEngine().last_row(full)
            assert row.tobytes() == full_row.tobytes()
        scalar = _searched(engine="scalar", length=80, k=4)
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
