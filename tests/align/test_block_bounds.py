"""The exact block bounds, as a property of whole searches.

The bound every never-aligned split starts at
(:meth:`TopAlignmentState.make_tasks`) must dominate that split's
first-pass score and every score it realigns to afterwards — for
**every** split, since one that is bounded too low is simply never
filled and the run just reports different tops.  The conformance
harness draws that property (``tests/conformance/test_fills.py``,
through :func:`tests.conformance.lattice.check_fills`); below are its
named points, what a block fill counts, and restored sessions, which
(a checkpoint, or any subset of first-pass rows put back with
:meth:`TopAlignmentState.restore`) must bound only what they still owe.
"""

import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import AlignmentEngine, LanesEngine
from repro.core import RepeatFinder, TopAlignmentSession, TopAlignmentState, topalign
from repro.core.checkpoint import save_checkpoint
from tests.conformance.lattice import BLOSUM62, Scoring, Search, check_fills, searches

#: A tandem DNA family in noise, and a protein under a drawn matrix.
_SEARCHES = [
    Search("TTACGTACGGACGTACGTTACGTACGAACGTAC", k=3),
    Search("MKVLAMKVLAMKVIAMKVLAW", True, Scoring("drawn", gap_open=3.0, seed=7), k=3),
    Search("MKVLAMKVLAMKVIAMKVLAW", True, BLOSUM62, k=2),
]


def _rows(state, *, with_override):
    return LanesEngine().last_rows_batch(
        [state.problem_for(r, with_override=with_override) for r in range(1, state.m)]
    )


def test_bounds_dominate_first_passes_and_realignments():
    for search in _SEARCHES:
        m = len(search.text)
        for width in (1, 32, None):
            for group in (1, 8):
                check_fills(search, LanesEngine(), group=group, width=width)
            # Block problems are ordinary problems, counted at rows x cols.
            state = TopAlignmentState(search.sequence, search.exchange, search.gaps)
            with mock.patch.object(topalign, "BLOCK_SPLITS", width or m):
                state.make_tasks()
            blocks = [(at, min(at + (width or m), m)) for at in range(1, m, width or m)]
            assert [state.block_problem(*b).cells for b in blocks] == [
                (stop - 1) * (m - first) for first, stop in blocks
            ]
            assert state.stats.cells == sum(
                (stop - 1) * (m - first) for first, stop in blocks
            )
            assert state.stats.alignments == 0


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
@given(search=searches(max_size=40), accept=st.integers(1, 3), data=st.data())
def test_restored_sessions_bound_only_what_they_owe(search, accept, data):
    sequence, exchange, gaps = search.sequence, search.exchange, search.gaps
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
