"""Runtime invariant validators: each must catch a seeded violation.

Half of these tests corrupt state deliberately (a buggy score_of that
forgets shadow rejection, an un-marked triangle pair, a stale score
below its fresh value) and assert the matching validator raises —
no always-green checkers.  The other half run the checker over correct
executions (fixed and hypothesis-random inputs) and assert silence.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.invariants import (
    ENV_FLAG,
    InvariantChecker,
    InvariantViolation,
    TriangleMonotonicityValidator,
    check_heap_upper_bound,
    checker_from_env,
    invariant_mode,
    validate_shadow_rows,
)
from repro.core.bottomrows import BottomRowStore
from repro.core.override import DenseOverrideTriangle, SparseOverrideTriangle
from repro.core.tasks import NEVER_ALIGNED, Task, TaskQueue
from repro.core.topalign import TopAlignmentState, find_top_alignments
from repro.sequences import DNA, Sequence


@pytest.fixture()
def tandem_state(dna_scoring):
    exchange, gaps = dna_scoring
    seq = Sequence("ATGCATGCATGC", DNA, id="tandem")
    return seq, TopAlignmentState(seq, exchange, gaps)


# ---------------------------------------------------------------------------
# mode parsing / wiring
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    ("raw", "expected"),
    [
        ("", None),
        ("0", None),
        ("off", None),
        ("1", "cheap"),
        ("cheap", "cheap"),
        ("full", "full"),
        ("FULL", "full"),
        ("2", "full"),
    ],
)
def test_invariant_mode_parsing(monkeypatch, raw, expected):
    monkeypatch.setenv(ENV_FLAG, raw)
    assert invariant_mode() == expected


def test_checker_from_env(monkeypatch, tandem_state):
    _, state = tandem_state
    monkeypatch.delenv(ENV_FLAG, raising=False)
    assert checker_from_env(state) is None
    monkeypatch.setenv(ENV_FLAG, "full")
    checker = checker_from_env(state)
    assert checker is not None and checker.mode == "full"


def test_state_wires_checker_from_env(monkeypatch, dna_scoring):
    exchange, gaps = dna_scoring
    monkeypatch.setenv(ENV_FLAG, "1")
    state = TopAlignmentState(Sequence("ATGCATGC", DNA), exchange, gaps)
    assert isinstance(state.invariants, InvariantChecker)
    assert state.invariants.mode == "cheap"


# ---------------------------------------------------------------------------
# TriangleMonotonicityValidator
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cls", [DenseOverrideTriangle, SparseOverrideTriangle])
def test_triangle_validator_accepts_monotone_growth(cls):
    triangle = cls(8)
    validator = TriangleMonotonicityValidator(triangle)
    triangle.mark([(1, 5), (2, 6)])
    assert validator.validate(triangle) == {(1, 5), (2, 6)}
    triangle.mark([(3, 7)])
    assert validator.validate(triangle) == {(3, 7)}


def test_triangle_validator_catches_seeded_unmark():
    triangle = DenseOverrideTriangle(8)
    triangle.mark([(1, 5), (2, 6)])
    validator = TriangleMonotonicityValidator(triangle)
    triangle._flags[1, 5] = False  # the seeded violation
    triangle._row_counts[1] -= 1
    with pytest.raises(InvariantViolation, match="un-marked"):
        validator.validate(triangle)


def test_triangle_validator_catches_version_rollback():
    triangle = DenseOverrideTriangle(8)
    triangle.mark([(1, 5)])
    validator = TriangleMonotonicityValidator(triangle)
    triangle.version -= 1
    with pytest.raises(InvariantViolation, match="backwards"):
        validator.validate(triangle)


def test_triangle_validator_catches_count_drift():
    triangle = DenseOverrideTriangle(8)
    validator = TriangleMonotonicityValidator(triangle)
    triangle.mark([(1, 5)])
    triangle._row_counts[1] += 1  # count no longer matches the flags
    with pytest.raises(InvariantViolation, match="marked_count"):
        validator.validate(triangle)


def test_triangle_validator_catches_out_of_bounds_pair():
    triangle = DenseOverrideTriangle(8)
    validator = TriangleMonotonicityValidator(triangle)
    triangle._flags[0, 3] = True  # i=0 violates 1 <= i < j
    triangle._row_counts[0] += 1
    with pytest.raises(InvariantViolation, match="outside the triangle"):
        validator.validate(triangle)


# ---------------------------------------------------------------------------
# validate_shadow_rows
# ---------------------------------------------------------------------------


def _store_with_row(m: int = 9, r: int = 3) -> tuple[BottomRowStore, np.ndarray]:
    store = BottomRowStore(m)
    cached = np.array([0.0, 4.0, 7.0, 2.0, 0.0, 5.0, 1.0], dtype=np.float64)
    store.put(r, cached)
    return store, cached


def test_shadow_rows_accepts_consistent_claims():
    store, cached = _store_with_row()
    fresh = cached.copy()
    fresh[2] = 3.0  # one rerouted (shadow) cell
    validate_shadow_rows(
        store, 3, fresh, claimed_mask=fresh == cached, claimed_score=5.0
    )


def test_shadow_rows_catches_seeded_wrong_mask():
    store, cached = _store_with_row()
    fresh = cached.copy()
    fresh[2] = 3.0
    bad_mask = np.ones_like(cached, dtype=bool)  # claims the shadow cell valid
    with pytest.raises(InvariantViolation, match="column 2"):
        validate_shadow_rows(store, 3, fresh, claimed_mask=bad_mask)


def test_shadow_rows_catches_seeded_shadow_score():
    store, cached = _store_with_row()
    fresh = cached.copy()
    fresh[2] = 9.0  # the shadow cell now holds the global maximum
    with pytest.raises(InvariantViolation, match="must not contribute"):
        validate_shadow_rows(store, 3, fresh, claimed_score=9.0)


def test_shadow_rows_all_changed_scores_zero():
    store, cached = _store_with_row()
    fresh = cached + 1.0
    validate_shadow_rows(store, 3, fresh, claimed_score=0.0)
    with pytest.raises(InvariantViolation):
        validate_shadow_rows(store, 3, fresh, claimed_score=float(fresh.max()))


def test_shadow_rows_catches_shape_mismatch():
    store, _ = _store_with_row()
    with pytest.raises(InvariantViolation, match="shape"):
        validate_shadow_rows(store, 3, np.zeros(4))


# ---------------------------------------------------------------------------
# check_heap_upper_bound / guard_task / verify_upper_bounds
# ---------------------------------------------------------------------------


def test_heap_upper_bound_accepts_true_bound(tandem_state):
    _, state = tandem_state
    task = Task(r=4)
    fresh = check_heap_upper_bound(state, Task(r=4, score=math.inf, aligned_with=0))
    assert fresh > 0
    task.score = fresh  # the exact score is the tightest valid bound
    task.aligned_with = 0
    assert check_heap_upper_bound(state, task) == fresh


def test_heap_upper_bound_catches_seeded_underestimate(tandem_state):
    _, state = tandem_state
    fresh = check_heap_upper_bound(state, Task(r=4, score=math.inf, aligned_with=0))
    stale = Task(r=4, score=fresh - 1.0, aligned_with=0)
    with pytest.raises(InvariantViolation, match="upper bound"):
        check_heap_upper_bound(state, stale)


def test_verify_upper_bounds_sweep(tandem_state):
    seq, state = tandem_state
    find_top_alignments(seq, 1, state.exchange, state.gaps, state=state)
    checker = InvariantChecker(state, mode="full")
    r = state.found[0].r  # spanned by the acceptance: version-0 scores are stale
    fresh = check_heap_upper_bound(state, Task(r=r, score=math.inf, aligned_with=0))
    good = Task(r=r, score=fresh + 2.0, aligned_with=0)
    never = Task(r=5)  # NEVER_ALIGNED +inf placeholder: skipped
    bounded = Task(r=5, score=40.0)  # never filled, finite: 5 % 5 is not
    assert checker.verify_upper_bounds([good, never, bounded]) == 1  # n_found % 5
    sampled = Task(r=6, score=40.0)
    assert checker.verify_upper_bounds([good, never, sampled]) == 2
    bad = Task(r=r, score=max(fresh - 1.0, 0.0), aligned_with=0)
    with pytest.raises(InvariantViolation):
        checker.verify_upper_bounds([good, bad])


def test_verify_upper_bounds_catches_seeded_inexact_current_score(tandem_state):
    """A score stamped current must *equal* its fresh realignment: a
    span rule that stepped past an acceptance touching the split would
    leave a mere upper bound looking acceptable."""
    seq, state = tandem_state
    find_top_alignments(seq, 1, state.exchange, state.gaps, state=state)
    checker = InvariantChecker(state, mode="full")
    r = state.found[0].r
    fresh = check_heap_upper_bound(state, Task(r=r, score=math.inf, aligned_with=0))
    exact = Task(r=r, score=fresh, aligned_with=1)
    assert checker.verify_upper_bounds([exact]) == 1
    inexact = Task(r=r, score=fresh + 2.0, aligned_with=1)
    with pytest.raises(InvariantViolation, match="span-current"):
        checker.verify_upper_bounds([inexact])


@pytest.mark.parametrize(
    ("task", "match"),
    [
        (Task(r=4, score=float("nan"), aligned_with=0), "NaN"),
        (Task(r=4, score=-1.0, aligned_with=0), "negative"),
        (Task(r=0, score=1.0, aligned_with=0), "outside"),
        (Task(r=12, score=1.0, aligned_with=0), "outside"),
        (Task(r=4, score=1.0, aligned_with=3), "triangle version"),
    ],
)
def test_guard_task_catches_seeded_structural_breakage(tandem_state, task, match):
    _, state = tandem_state
    checker = InvariantChecker(state, mode="cheap")
    with pytest.raises(InvariantViolation, match=match):
        checker.guard_task(task)


def test_guard_task_wired_into_queue_inserts(tandem_state):
    _, state = tandem_state
    checker = InvariantChecker(state, mode="cheap")
    queue = TaskQueue(guard=checker.guard_task)
    queue.insert(Task(r=4))  # fresh +inf task is structurally fine
    with pytest.raises(InvariantViolation):
        queue.insert(Task(r=4, score=-2.0, aligned_with=0))
    assert len(queue) == 1  # the bad task never entered


def test_after_align_catches_seeded_score_rise(tandem_state):
    _, state = tandem_state
    checker = InvariantChecker(state, mode="cheap")
    risen = Task(r=4, score=10.0, aligned_with=0)
    with pytest.raises(InvariantViolation, match="raised the score"):
        checker.after_align(
            risen, np.zeros(9), prev_score=6.0, prev_version=NEVER_ALIGNED
        )


# ---------------------------------------------------------------------------
# after_accept
# ---------------------------------------------------------------------------


def _fake_alignment(index, r, pairs):
    """after_accept consumes only .index/.r/.pairs; a stub lets tests
    seed shapes TopAlignment's own __post_init__ would reject."""
    return SimpleNamespace(index=index, r=r, pairs=tuple(pairs))


def test_after_accept_passes_on_real_acceptance(tandem_state):
    seq, state = tandem_state
    state.invariants = InvariantChecker(state, mode="cheap")
    tops, _ = find_top_alignments(seq, 2, state.exchange, state.gaps, state=state)
    assert len(tops) == 2  # hooks fired on both acceptances without raising
    assert state.invariants.checks > 0


def test_after_accept_catches_seeded_overlap(tandem_state):
    _, state = tandem_state
    checker = InvariantChecker(state, mode="cheap")
    state.triangle.mark([(1, 5), (2, 6)])
    checker.triangle_validator.validate(state.triangle)
    with pytest.raises(InvariantViolation, match="re-uses"):
        checker.after_accept(_fake_alignment(1, 3, [(1, 5), (3, 7)]))


def test_after_accept_catches_seeded_non_straddling_pair(tandem_state):
    _, state = tandem_state
    checker = InvariantChecker(state, mode="cheap")
    state.triangle.mark([(5, 7)])
    with pytest.raises(InvariantViolation, match="straddle"):
        checker.after_accept(_fake_alignment(0, 3, [(5, 7)]))


def test_after_accept_catches_seeded_non_monotone_path(tandem_state):
    _, state = tandem_state
    checker = InvariantChecker(state, mode="cheap")
    state.triangle.mark([(1, 6), (2, 5)])
    with pytest.raises(InvariantViolation, match="strictly increasing"):
        checker.after_accept(_fake_alignment(0, 3, [(1, 6), (2, 5)]))


def test_after_accept_catches_seeded_unmarked_pairs(tandem_state):
    _, state = tandem_state
    checker = InvariantChecker(state, mode="cheap")
    # the acceptance claims pairs the triangle was never told about
    state.triangle.version += 0  # triangle untouched
    with pytest.raises(InvariantViolation, match="not all"):
        checker.after_accept(_fake_alignment(0, 3, [(1, 5), (2, 6)]))


# ---------------------------------------------------------------------------
# end-to-end: correct runs stay silent, seeded bugs are caught
# ---------------------------------------------------------------------------


def test_full_mode_end_to_end_silent_and_counting(dna_scoring, monkeypatch):
    exchange, gaps = dna_scoring
    seq = Sequence("ATGCATGCATGC", DNA, id="tandem")
    plain, _ = find_top_alignments(seq, 3, exchange, gaps)
    monkeypatch.setenv(ENV_FLAG, "full")
    state = TopAlignmentState(seq, exchange, gaps)
    checked, _ = find_top_alignments(seq, 3, exchange, gaps, state=state)
    assert checked == plain  # checking must not change the answer
    assert state.invariants.checks > len(checked)


def test_checker_catches_engine_that_forgets_shadow_rejection(tandem_state):
    """End-to-end seeded bug: a score_of that ignores the Appendix A
    validity mask (counts shadow alignments) must be caught mid-run."""
    seq, state = tandem_state
    state.invariants = InvariantChecker(state, mode="cheap")
    state.bottom_rows.score_of = lambda r, fresh: float(fresh.max())
    with pytest.raises(InvariantViolation, match="shadow"):
        find_top_alignments(seq, 4, state.exchange, state.gaps, state=state)


def test_full_mode_catches_seeded_low_block_bound(tandem_state):
    """End-to-end seeded bug: one block bound 1 below the first-pass
    score it stands for.  The split never tops the heap, so nothing ever
    fills it and the run would just report other tops — the full-mode
    sweep recomputes a sample of the never-filled splits and must object."""
    seq, state = tandem_state
    state.invariants = InvariantChecker(state, mode="full")
    r = 6  # sampled by the sweep after the first acceptance (6 % 5 == 1)
    true = float(state.engine.last_row(state.problem_for(r)).max())
    bounds = state.start_bounds()
    assert bounds[r - 1] >= true > 1.0
    bounds[r - 1] = true - 1.0
    with pytest.raises(InvariantViolation, match="heap-upper-bound"):
        # group=1: one fill at a time, so nothing below the top is filled.
        find_top_alignments(seq, 1, state.exchange, state.gaps, state=state, group=1)
    assert r not in state.bottom_rows and state.n_found == 1


def test_checker_catches_triangle_corruption_after_run(tandem_state):
    seq, state = tandem_state
    state.invariants = InvariantChecker(state, mode="cheap")
    tops, _ = find_top_alignments(seq, 1, state.exchange, state.gaps, state=state)
    i, j = tops[0].pairs[0]
    state.triangle._flags[i, j] = False  # seeded un-mark
    state.triangle._row_counts[i] -= 1
    with pytest.raises(InvariantViolation, match="un-marked"):
        state.invariants.triangle_validator.validate(state.triangle)


# ---------------------------------------------------------------------------
# hypothesis: the heap upper-bound invariant holds end-to-end
# ---------------------------------------------------------------------------


def _random_sequence(data, min_size=6, max_size=18):
    codes = data.draw(
        st.lists(st.integers(0, 3), min_size=min_size, max_size=max_size)
    )
    return Sequence(np.array(codes, dtype=np.int8), DNA)


@settings(max_examples=20, deadline=None)
@given(data=st.data(), k=st.integers(1, 4))
def test_property_heap_upper_bound_holds_end_to_end(data, k, dna_scoring):
    """Full-mode checking (every queued bound re-verified after every
    acceptance) stays silent on arbitrary inputs, and the guarded run
    returns exactly what the unguarded run returns."""
    exchange, gaps = dna_scoring
    seq = _random_sequence(data)
    plain, _ = find_top_alignments(seq, k, exchange, gaps)
    state = TopAlignmentState(seq, exchange, gaps)
    state.invariants = InvariantChecker(state, mode="full")
    checked, _ = find_top_alignments(seq, k, exchange, gaps, state=state)
    assert checked == plain
    assert state.invariants.checks > 0


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_property_stale_scores_dominate_fresh_scores(data, dna_scoring):
    """Directly: after one acceptance, every not-yet-realigned task's
    cached first-pass score is >= its fresh score (the §3 claim the
    best-first loop depends on)."""
    exchange, gaps = dna_scoring
    seq = _random_sequence(data, min_size=8)
    # prune=False: this property is about genuine first-pass scores, so
    # every task starts at +inf (bound dominance is the subject of
    # tests/align/test_block_bounds.py).
    state = TopAlignmentState(seq, exchange, gaps, prune=False)
    tasks = state.make_tasks()
    for task in tasks:
        state.align_task(task)
    accepted = max(tasks, key=lambda t: (t.score, -t.r))
    if accepted.score <= 0:
        return  # nothing acceptable in this random sequence
    state.accept_task(accepted)
    checker = InvariantChecker(state, mode="full")
    stale = [t for t in tasks if t.r != accepted.r]
    assert checker.verify_upper_bounds(stale) == len(stale)
