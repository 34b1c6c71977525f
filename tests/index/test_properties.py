"""Property tests of the index tier's two safety contracts.

* **Recall safety** — a sequence whose unindexed scan reports a top
  alignment above the significance threshold is never classed *skip*;
* **Bound dominance** — the per-split bounds of
  :func:`~repro.index.seed_score_bounds` are >= every true (realigned)
  score.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import find_top_alignments
from repro.index import ROUTE_SKIP, build_profile, classify, seed_score_bounds
from repro.scoring import GapPenalties, match_mismatch
from repro.sequences import DNA, Sequence
from repro.sequences.workloads import RepeatSpec, implant_repeats, random_sequence


def _scoring():
    return match_mismatch(DNA, 2.0, -1.0, wildcard_score=None), GapPenalties(2, 1)


def _workload(data):
    """A random member of the scan workload family: background DNA,
    optionally with an implanted tandem family."""
    length = data.draw(st.integers(60, 200))
    seed = data.draw(st.integers(0, 10_000))
    if data.draw(st.booleans()):
        unit = data.draw(st.integers(10, max(11, length // 5)))
        copies = data.draw(st.integers(2, 4))
        rate = data.draw(st.sampled_from([0.0, 0.1, 0.2]))
        return implant_repeats(
            length,
            RepeatSpec(unit_length=unit, copies=copies, substitution_rate=rate),
            DNA,
            seed=seed,
        ).sequence
    return random_sequence(length, DNA, seed=seed)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), min_score=st.sampled_from([20.0, 40.0, 60.0, 80.0]))
def test_routing_is_recall_safe(data, min_score):
    """If the unindexed scan finds a top above the threshold, the index
    tier must not skip the sequence."""
    exchange, gaps = _scoring()
    seq = _workload(data)
    tops, _ = find_top_alignments(seq, 3, exchange, gaps)
    best = max((a.score for a in tops), default=0.0)
    if best <= min_score:
        return  # nothing significant to protect
    decision = classify(
        build_profile(seq), exchange, min_score=min_score
    )
    assert decision.route != ROUTE_SKIP, (
        f"skip-routed a sequence with a true top of {best} "
        f"(threshold {min_score}, estimate {decision.estimate})"
    )


@settings(max_examples=30, deadline=None)
@given(data=st.data(), k=st.integers(1, 5))
def test_seed_bounds_dominate_and_preserve_tops(data, k):
    """Bounds >= every realigned score."""
    exchange, gaps = _scoring()
    seq = _workload(data)
    bounds = seed_score_bounds(seq, exchange)
    tops, _ = find_top_alignments(seq, k, exchange, gaps)
    # Accepted scores are true realigned scores: each must sit under
    # its split's bound.
    for top in tops:
        assert top.score <= bounds[top.r - 1] + 1e-9


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_bounds_dominate_true_first_pass(data):
    """B(r) >= the version-0 first-pass score for every split."""
    from repro.core.topalign import TopAlignmentState

    exchange, gaps = _scoring()
    codes = data.draw(
        st.lists(st.integers(0, 4), min_size=6, max_size=40)
    )
    seq = Sequence(np.array(codes, dtype=np.int8), DNA)
    bounds = seed_score_bounds(seq, exchange)
    state = TopAlignmentState(seq, exchange, gaps)
    for r in range(1, len(seq)):
        row = np.asarray(state.engine.last_row(state.problem_for(r)))
        assert float(row.max()) <= bounds[r - 1] + 1e-9
