"""Single engine batches, between the acceptances of a drawn search.

Before the first acceptance and after every one: each split's starting
bound (block bounds, at a drawn block width) dominates its valid score;
each split with saved rows resumes to the bottom row and saved rows of
a fill from the top; one drawn batch — realignments at their resume
rows, first passes and block problems, in any order, with or without
the shared profile — leaves every bottom row byte-equal to
``ScalarEngine`` and every harvested row maximum equal to Equation 1's;
and each acceptance's traceback from saved rows follows the whole
matrix's path (:func:`~tests.conformance.lattice.check_fills`).  A tiny
state budget makes the triangle sparse and evicts bottom rows.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.align import LanesEngine, VectorEngine
from tests.conformance.lattice import Scoring, Search, batches, check_fills, searches

#: +1 / 0, no gap penalties: ties everywhere.
_FLAT = Scoring("match", 1.0, 0.0, 0.0, 0.0)

engines = st.one_of(
    st.builds(VectorEngine),
    st.builds(
        LanesEngine,
        lanes=st.integers(1, 8),
        dtype=st.sampled_from(["int16", "int32", "float64"]),
    ),
)


@settings(deadline=None)
@given(
    search=searches(max_size=48, max_k=3),
    engine=engines,
    group=st.sampled_from([1, 8]),
    width=st.sampled_from([1, 32, None]),
    tiny=st.booleans(),
    batch=batches,
)
# Shrunk from seeded bugs (EXPERIMENTS.md, "The conformance harness"):
@example(  # a resume from a row an acceptance changed
    search=Search("PPPPPPPS" * 4, True, _FLAT, k=2),
    engine=VectorEngine(),
    group=1,
    width=1,
    tiny=False,
    batch=([], False),
)
@example(  # int16 chosen past its saturation bound
    search=Search("A" * 30, scoring=Scoring(match=1258.0), k=1),
    engine=LanesEngine(lanes=1, dtype="int16"),
    group=1,
    width=32,
    tiny=False,
    batch=([], False),
)
@example(  # a staircase that zeroes one column too many
    search=Search("AAAA", scoring=Scoring("match", 1.0, 0.0, 2.5, 1.0), k=1),
    engine=VectorEngine(),
    group=1,
    width=1,
    tiny=False,
    batch=([("block", 1, 3)], False),
)
@example(  # the shadow rule switched off
    search=Search("GAGAA", scoring=_FLAT, k=2),
    engine=VectorEngine(),
    group=1,
    width=1,
    tiny=False,
    batch=([], False),
)
def test_fills_equal_scalar_after_every_acceptance(
    search, engine, group, width, tiny, batch
):
    check_fills(search, engine, group=group, width=width, tiny=tiny, batch=batch)
