"""Tests for resumable top-alignment sessions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import get_engine
from repro.align.lanes import OWED_LANES
from repro.core import TopAlignmentState, find_top_alignments
from repro.core.session import TopAlignmentSession
from repro.parallel import ThreadedTopAlignmentRunner
from repro.scoring import GapPenalties, blosum62, match_mismatch
from repro.sequences import (
    DNA,
    PROTEIN,
    RepeatSpec,
    Sequence,
    implant_repeats,
    pseudo_titin,
    tandem_repeat_sequence,
)
from tests.conftest import shrink_state_budget


def _key(alignments):
    return [(a.index, a.r, a.score, a.pairs) for a in alignments]


class TestSession:
    def test_incremental_equals_batch(self, small_repeat_protein, protein_scoring):
        """extend(3) + extend(3) must equal find_top_alignments(k=6)."""
        ex, gaps = protein_scoring
        expected, _ = find_top_alignments(small_repeat_protein, 6, ex, gaps)
        session = TopAlignmentSession(small_repeat_protein, ex, gaps)
        first = session.extend(3)
        second = session.extend(3)
        assert _key(first + second) == _key(expected)
        assert _key(session.alignments) == _key(expected)

    def test_extend_returns_only_new(self, tandem_dna, dna_scoring):
        ex, gaps = dna_scoring
        session = TopAlignmentSession(tandem_dna, ex, gaps)
        first = session.extend(2)
        second = session.extend(1)
        assert len(first) == 2 and len(second) == 1
        assert second[0].index == 2

    def test_incremental_work_is_cheaper(self, small_repeat_protein, protein_scoring):
        """The second batch must not repay the first pass."""
        ex, gaps = protein_scoring
        session = TopAlignmentSession(small_repeat_protein, ex, gaps)
        session.extend(3)
        before = session.stats.alignments
        session.extend(3)
        added = session.stats.alignments - before
        m = len(small_repeat_protein)
        assert added < m - 1  # far less than a fresh first pass

    def test_exhaustion(self, dna_scoring):
        ex, gaps = dna_scoring
        seq = tandem_repeat_sequence("ACG", 3)
        session = TopAlignmentSession(seq, ex, gaps)
        everything = session.extend(100)
        assert session.exhausted
        assert session.extend(5) == []
        expected, _ = find_top_alignments(seq, 100, ex, gaps)
        assert _key(everything) == _key(expected)

    def test_len(self, tandem_dna, dna_scoring):
        ex, gaps = dna_scoring
        session = TopAlignmentSession(tandem_dna, ex, gaps)
        assert len(session) == 0
        session.extend(2)
        assert len(session) == 2

    def test_k_validation(self, tandem_dna, dna_scoring):
        ex, gaps = dna_scoring
        session = TopAlignmentSession(tandem_dna, ex, gaps)
        with pytest.raises(ValueError):
            session.extend(0)

    def test_min_score_bar_stops_before_weaker_alignments(self, tandem_dna, dna_scoring):
        ex, gaps = dna_scoring
        barred = TopAlignmentSession(tandem_dna, ex, gaps, min_score=7.0)
        got = barred.extend(10_000)
        assert [a.score for a in got] == [8.0, 8.0, 8.0]
        # The bar is that session's: an open one finds the same three first.
        session = TopAlignmentSession(tandem_dna, ex, gaps)
        assert _key(session.extend(3)) == _key(got)
        assert all(a.score <= 8.0 for a in session.extend(2))

    def test_min_score_constructor(self, tandem_dna, dna_scoring):
        ex, gaps = dna_scoring
        session = TopAlignmentSession(tandem_dna, ex, gaps, min_score=7.0)
        got = session.extend(10)
        assert len(got) == 3
        assert session.exhausted


class TestOneDriver:
    """The session *is* the driver: chunking and entry point change nothing."""

    @pytest.mark.parametrize("group", [1, 8])
    def test_chunked_extend_repays_no_alignments(self, group):
        """extend(1) x k keeps its heap, so it aligns exactly what one
        extend(k) aligns (the service checkpoints per acceptance)."""
        seq = pseudo_titin(80, seed=3)
        ex, gaps = blosum62(), GapPenalties(8, 1)
        one_shot = TopAlignmentSession(seq, ex, gaps, group=group)
        one_shot.extend(5)
        chunked = TopAlignmentSession(seq, ex, gaps, group=group)
        for _ in range(5):
            chunked.extend(1)
        assert _key(chunked.alignments) == _key(one_shot.alignments)
        assert chunked.stats.alignments <= one_shot.stats.alignments
        assert chunked.stats.cells == one_shot.stats.cells

    @pytest.mark.parametrize("group", [1, 8])
    def test_session_prunes_against_min_score(self, group, dna_scoring):
        """A session configures the bound floor exactly as a one-shot
        run does: same cells, the same splits retired unfilled — counted
        once, when the session attaches, not again per ``extend``."""
        ex, gaps = dna_scoring
        seq = implant_repeats(
            260,
            RepeatSpec(unit_length=90, copies=2, substitution_rate=0.04),
            DNA,
            seed=5,
        ).sequence
        expected, one_shot = find_top_alignments(
            seq, 4, ex, gaps, engine="vector", group=group, min_score=140.0
        )
        session = TopAlignmentSession(
            seq, ex, gaps, engine="vector", group=group, min_score=140.0
        )
        got = session.extend(4)
        assert _key(got) == _key(expected) and expected
        assert one_shot.pruned_lanes > 0
        assert session.stats.pruned_lanes == one_shot.pruned_lanes
        assert session.stats.cells == one_shot.cells
        chunked = TopAlignmentSession(
            seq, ex, gaps, engine="vector", group=group, min_score=140.0
        )
        for _ in range(4):
            chunked.extend(1)
        assert chunked.stats.pruned_lanes == one_shot.pruned_lanes
        assert chunked.stats.pruned_cells == one_shot.pruned_cells

    def test_min_score_run_is_a_prefix_of_the_open_run(self):
        seq = pseudo_titin(80, seed=3)
        ex, gaps = blosum62(), GapPenalties(8, 1)
        expected, _ = find_top_alignments(seq, 4, ex, gaps)
        bar = expected[1].score  # strictly above: only the first clears it
        barred = TopAlignmentSession(seq, ex, gaps, min_score=bar)
        strong = barred.extend(4)
        assert 1 <= len(strong) < 4 and all(a.score > bar for a in strong)
        assert barred.exhausted
        # Exhausted above the bar only: an open session finds the same
        # alignments first and the weaker ones after them.
        session = TopAlignmentSession(seq, ex, gaps)
        assert _key(session.extend(len(strong))) == _key(strong)
        assert not session.exhausted
        session.extend(4 - len(strong))
        assert _key(session.alignments) == _key(expected)

    def test_group_validation(self, tandem_dna, dna_scoring):
        ex, gaps = dna_scoring
        with pytest.raises(ValueError, match="group"):
            TopAlignmentSession(tandem_dna, ex, gaps, group=0)


def _fresh_scalar_score(state, r):
    """Split ``r`` realigned now, by the engine that shares no code with
    the lockstep row step."""
    row = get_engine("scalar").last_row(state.problem_for(r))
    return state.bottom_rows.score_of(r, row)


def _kept_current(session, stamps):
    """Queued tasks the span rule calls current although their last
    alignment (``stamps``, taken before the acceptance) is older."""
    state = session.state
    return [
        task
        for task in session._queue.tasks()
        if task.is_current(state.spans) and 0 <= stamps[task.r] < state.n_found
    ]


class TestSpanRule:
    """An acceptance whose pairs run ``i_min .. j_max`` touches only the
    splits ``i_min <= r < j_max``; every other score stays current."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data(), protein=st.booleans())
    def test_scores_left_current_equal_a_fresh_realignment(self, data, protein):
        if protein:
            unit = data.draw(st.lists(st.integers(0, 19), min_size=4, max_size=9))
            alphabet = PROTEIN
            exchange, gaps = blosum62(), GapPenalties(8.0, 1.0)
        else:
            unit = data.draw(st.lists(st.integers(0, 3), min_size=3, max_size=8))
            alphabet = DNA
            exchange, gaps = match_mismatch(DNA, 2.0, -1.0), GapPenalties(2.0, 1.0)
        # Noisy tandem copies between random flanks: several alignments
        # of different extent, so some acceptances leave splits alone.
        nsym = 20 if protein else 4
        codes = data.draw(st.lists(st.integers(0, nsym - 1), min_size=0, max_size=10))
        for _ in range(data.draw(st.integers(2, 4))):
            codes = codes + [
                data.draw(st.integers(0, nsym - 1)) if data.draw(st.integers(0, 9)) == 0 else c
                for c in unit
            ]
        codes += data.draw(st.lists(st.integers(0, nsym - 1), min_size=0, max_size=10))
        sequence = Sequence(np.array(codes, dtype=np.int8), alphabet)
        session = TopAlignmentSession(
            sequence, exchange, gaps, group=data.draw(st.sampled_from([1, 8]))
        )
        state = session.state
        for _ in range(6):
            if not session.extend(1):
                break
            for task in session._queue.tasks():
                if task.is_current(state.spans):
                    assert task.score == _fresh_scalar_score(state, task.r)

    @pytest.mark.parametrize("triangle", ["dense", "sparse"])
    def test_the_rule_keeps_scores_current(
        self, triangle, small_repeat_protein, protein_scoring, monkeypatch
    ):
        """Not vacuous: acceptances do leave older scores current, those
        scores are exact, and a later acceptance *inside* such a split's
        matrix makes it stale again — on the triangle the default budget
        picks, and on the sparse one a tiny budget picks, which also
        evicts rows and drops saved ones."""
        if triangle == "sparse":
            shrink_state_budget(monkeypatch)
        session = TopAlignmentSession(small_repeat_protein, *protein_scoring)
        state = session.state
        kept_total = 0
        for _ in range(5):
            stamps = {task.r: task.aligned_with for task in session._queue.tasks()}
            session.extend(1)
            i_min, j_max = state.spans[-1]
            kept = _kept_current(session, stamps)
            kept_total += len(kept)
            for task in kept:
                assert not i_min <= task.r < j_max
                assert task.score == _fresh_scalar_score(state, task.r)
            for task in session._queue.tasks():
                if i_min <= task.r < j_max and task.r != state.found[-1].r:
                    assert not task.is_current(state.spans)
        assert kept_total > 0

    def test_restored_checkpoint_rows_follow_the_rule(
        self, tmp_path, small_repeat_protein, protein_scoring
    ):
        """Restored first-pass scores are stamped version 0; the ones no
        restored alignment spans are current at once — and exact."""
        from repro.core import load_checkpoint, save_checkpoint

        first = TopAlignmentSession(small_repeat_protein, *protein_scoring)
        first.extend(2)
        save_checkpoint(first.state, tmp_path / "ckpt.npz")
        state = load_checkpoint(
            tmp_path / "ckpt.npz", small_repeat_protein, *protein_scoring
        )
        resumed = TopAlignmentSession.from_state(state)
        current = [t for t in resumed._queue.tasks() if t.is_current(state.spans)]
        assert current
        for task in current:
            assert all(not lo <= task.r < hi for lo, hi in state.spans)
            assert task.score == _fresh_scalar_score(state, task.r)


class _CountingEngine:
    """Delegating engine recording ``(n_found, lanes)`` of every batch."""

    def __init__(self, state):
        self.state, self.inner, self.calls = state, state.engine, []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def last_rows_batch(self, problems):
        self.calls.append((self.state.n_found, len(problems)))
        return self.inner.last_rows_batch(problems)


def _counted(session):
    session.state.engine = _CountingEngine(session.state)
    return session.state.engine


class TestFirstPassDispatch:
    """Never-aligned work is owed whatever the order: it goes out in
    packer-sized chunks; ``group`` sizes realignment batches only."""

    def test_group_8_first_pass_is_a_few_engine_calls(
        self, small_repeat_protein, protein_scoring
    ):
        session = TopAlignmentSession(small_repeat_protein, *protein_scoring, group=8)
        engine = _counted(session)
        session.extend(3)
        m = len(small_repeat_protein)
        before_first = [lanes for n_found, lanes in engine.calls if n_found == 0]
        assert len(before_first) <= math.ceil((m - 1) / OWED_LANES) + 1
        assert max(before_first) == OWED_LANES
        after = [lanes for n_found, lanes in engine.calls if n_found > 0]
        assert after and max(after) <= 8  # realignment mates: ``group``

    def test_group_1_is_one_problem_per_call(self, small_repeat_protein, protein_scoring):
        session = TopAlignmentSession(small_repeat_protein, *protein_scoring, group=1)
        engine = _counted(session)
        session.extend(3)
        assert {lanes for _, lanes in engine.calls} == {1}
        assert len(engine.calls) == session.stats.alignments

    def test_threads_share_a_first_pass(self, protein_scoring):
        sequence = pseudo_titin(400, seed=7)
        session = TopAlignmentSession(sequence, *protein_scoring)
        first_pass = []
        checkout = session.checkout

        def counting(target):
            batch = checkout(target)
            if batch is not None and batch.problems[0].override is None:
                first_pass.append(len(batch.tasks))
            return batch

        session.checkout = counting
        ThreadedTopAlignmentRunner(session, 1, n_threads=2).run()
        assert len(first_pass) >= 2
        assert max(first_pass) == OWED_LANES

    def test_seeded_bounds_below_the_best_fresh_score_are_never_filled(
        self, small_repeat_protein, protein_scoring
    ):
        """Owed means "the sequential schedule fills it too": a split
        whose block bound (its starting heap score) cannot beat a score
        already seen stays unaligned."""
        exchange, gaps = protein_scoring
        state = TopAlignmentState(small_repeat_protein, exchange, gaps)
        bounds = state.start_bounds()
        session = TopAlignmentSession.from_state(state)
        checkout = session.checkout

        def checked(target):
            batch = checkout(target)
            if batch is not None and state.n_found == 0:
                seen = max(
                    (state.bottom_rows.get(r).max() for r in range(1, state.m)
                     if r in state.bottom_rows),
                    default=0.0,
                )
                assert all(task.score >= seen for task in batch.tasks)
            return batch

        session.checkout = checked
        top = session.extend(1)[0]
        unfilled = [r for r in range(1, state.m) if r not in state.bottom_rows]
        assert unfilled
        assert all(bounds[r - 1] <= top.score for r in unfilled)
