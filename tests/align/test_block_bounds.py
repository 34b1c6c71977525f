"""The exact block bounds, as a property of whole searches.

For a drawn sequence (protein or DNA), integral scoring model, triangle
storage and block width, the bound every never-aligned split starts at
(:meth:`TopAlignmentState.make_tasks`) must dominate that split's
first-pass score and every score it realigns to afterwards — for
**every** split, since one that is bounded too low is simply never
filled and the run just reports different tops.  Restored sessions
(a checkpoint, or any subset of first-pass rows put back with
:meth:`TopAlignmentState.restore`) must bound only what they still
owe.  The oracle is the lane engine run on every split outright.
"""

import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import AlignmentEngine, LanesEngine
from repro.core import RepeatFinder, TopAlignmentSession, TopAlignmentState, topalign
from repro.core.checkpoint import save_checkpoint
from repro.scoring import ExchangeMatrix, GapPenalties
from repro.sequences import DNA, PROTEIN, Sequence


@st.composite
def searches(draw):
    """``(sequence, exchange, gaps)``: a few letters, so repeats abound."""
    alphabet = draw(st.sampled_from([PROTEIN, DNA]))
    letters = draw(st.integers(2, 4))
    codes = draw(st.lists(st.integers(0, letters - 1), min_size=6, max_size=40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scores = rng.integers(-4, 3, size=(alphabet.size, alphabet.size))
    scores = np.triu(scores) + np.triu(scores, 1).T
    np.fill_diagonal(scores, rng.integers(1, 7, size=alphabet.size))
    exchange = ExchangeMatrix("drawn", alphabet, scores)
    gaps = GapPenalties(draw(st.integers(0, 8)), draw(st.integers(0, 2)))
    return Sequence(np.array(codes, dtype=np.int8), alphabet), exchange, gaps


def _rows(state, *, with_override):
    return LanesEngine().last_rows_batch(
        [state.problem_for(r, with_override=with_override) for r in range(1, state.m)]
    )


class _Recording(AlignmentEngine):
    """The lane engine, remembering every problem it was handed."""

    name = "lanes"

    def __init__(self):
        self.inner, self.problems = LanesEngine(), []

    def last_row(self, problem):
        return self.last_rows_batch([problem])[0]

    def last_rows_batch(self, problems):
        self.problems += problems
        return self.inner.last_rows_batch(problems)


@settings(deadline=None)
@given(
    search=searches(),
    width=st.sampled_from([1, 32, None]),
    group=st.sampled_from([1, 8]),
    accept=st.integers(1, 3),
)
def test_bounds_dominate_first_passes_and_realignments(search, width, group, accept):
    sequence, exchange, gaps = search
    m = len(sequence)
    width = m if width is None else width
    state = TopAlignmentState(sequence, exchange, gaps)
    with mock.patch.object(topalign, "BLOCK_SPLITS", width):
        tasks = state.make_tasks()
    bounds = np.array([task.score for task in tasks])
    assert all(task.aligned_with == -1 for task in tasks)

    # Block problems are ordinary problems, counted at rows x cols.
    blocks = [(at, min(at + width, m)) for at in range(1, m, width)]
    assert [state.block_problem(*b).cells for b in blocks] == [
        (stop - 1) * (m - first) for first, stop in blocks
    ]
    assert state.stats.cells == sum((stop - 1) * (m - first) for first, stop in blocks)
    assert state.stats.alignments == 0

    first_rows = _rows(state, with_override=False)
    first_scores = np.array([row.max() for row in first_rows])
    assert np.all(bounds >= first_scores), (bounds - first_scores).min()
    if width == 1:
        assert bounds.tolist() == first_scores.tolist()

    # ... and every realignment, after 1-3 acceptances: the fresh row
    # under the live triangle, shadow cells (changed since the first
    # pass) rejected.
    session = TopAlignmentSession.from_state(state, group=group)
    for _ in session.extend(accept):
        for r, (fresh, first) in enumerate(
            zip(_rows(state, with_override=True), first_rows), start=1
        ):
            valid = fresh[fresh == first]
            assert bounds[r - 1] >= (valid.max() if valid.size else 0.0)


@settings(deadline=None)
@given(search=searches(), accept=st.integers(1, 3), data=st.data())
def test_restored_sessions_bound_only_what_they_owe(search, accept, data):
    sequence, exchange, gaps = search
    m = len(sequence)
    finder = RepeatFinder(exchange=exchange, gaps=gaps, engine=_Recording())
    first_rows = _rows(finder.session(sequence).state, with_override=False)

    def check(session):
        """Gates asked since the last clear cover exactly the owed splits."""
        state, engine = session.state, finder.engine
        owed = {r for r in range(1, m) if r not in state.bottom_rows}
        gates = [p.prune for p in engine.problems if p.prune is not None]
        asked = set()
        for gate in gates:
            # Trimmed to the splits still owed at both ends.
            assert gate.first in owed and gate.stop - 1 in owed
            asked.update(range(gate.first, gate.stop))
        assert owed <= asked
        assert bool(gates) == bool(owed)
        for task in state.make_tasks():
            if task.r in owed:
                assert task.aligned_with == -1
                assert task.score >= first_rows[task.r - 1].max()
            else:
                assert task.aligned_with == 0
                assert task.score == first_rows[task.r - 1].max()

    # A checkpoint: whatever the search had filled when it stopped.
    original = finder.session(sequence)
    original.extend(accept)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "search.ckpt"
        save_checkpoint(original.state, path)
        finder.engine.problems.clear()
        resumed = finder.session(sequence, checkpoint=path)
    assert len(resumed.state.bottom_rows) == len(original.state.bottom_rows)
    check(resumed)

    # Restored rows for any subset of the splits (all: no block at all).
    have = data.draw(st.sets(st.integers(1, m - 1)) | st.just(set(range(1, m))))
    finder.engine.problems.clear()
    state = TopAlignmentState(sequence, exchange, gaps, engine=finder.engine)
    state.restore(rows={r: first_rows[r - 1] for r in have})
    check(TopAlignmentSession.from_state(state))
