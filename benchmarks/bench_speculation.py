"""§5.1/§5.2 claims — speculation overhead.

* Lane groups (static speculation, §5.1): "the SSE version hardly
  computes more alignments than the sequential version (less than
  0.70 %)".
* Distributed dynamic speculation (§5.2): "up to 8.4 % more alignments
  were performed than by the sequential algorithm".

Both fractions shrink with problem size (overhead is per-acceptance
while useful work grows with m); at our scaled inputs we assert the
ordering (static lane speculation ≪ dynamic distributed speculation)
and reasonable magnitudes, and report the numbers for EXPERIMENTS.md.
"""

import pytest

from repro.core import TopAlignmentState, find_top_alignments
from repro.simulate import AlignmentOracle, ClusterConfig, ClusterSimulator

from conftest import save_table
from figures import bench_sequence, default_scoring

LENGTH = 300
K = 8


def static_group_schedule(state, k, group_size, *, min_score=0.0):
    """Figure 5 at the granularity of §5.1's static neighbour groups.

    Matrices are grouped in fixed, consecutive groups of ``group_size``
    split points ("group 1 contains matrices 1–4, group 2 contains
    matrices 5–8"); a group's score is its best member's, ties going to
    the smaller split.  When the best group's best member is current it
    is accepted; otherwise *all* members are realigned in one lane
    batch, including those whose score is already current — "the odds
    are that they have to be computed anyway".  Returns how many such
    already-current members were realigned (the paper's < 0.70 %).

    Figure code: the product's lane batches are chosen dynamically by
    :class:`repro.core.session.TopAlignmentSession`.  The tops are the
    sequential algorithm's all the same — group scores are upper bounds
    exactly like task scores, and acceptance still only fires for the
    globally dominant current task (``tests/parallel/test_groups.py``).
    """
    tasks = state.make_tasks()
    wasted = 0
    while state.n_found < k:
        best = min(tasks, key=lambda t: (-t.score, t.r))
        if best.score <= min_score:
            break
        if best.aligned_with == state.n_found:
            state.accept_task(best)
            continue
        first = (best.r - 1) // group_size * group_size
        group = tasks[first : first + group_size]
        wasted += sum(t.aligned_with == state.n_found for t in group)
        state.align_tasks_batch(group)
    return wasted


@pytest.fixture(scope="module")
def sequential_alignments():
    exchange, gaps = default_scoring()
    seq = bench_sequence(LENGTH)
    _, stats = find_top_alignments(seq, K, exchange, gaps, group=1)
    return stats.alignments


def test_lane_group_speculation(benchmark, sequential_alignments, results_dir):
    """Static groups of 4 recompute current members — how much waste?"""
    exchange, gaps = default_scoring()
    seq = bench_sequence(LENGTH)

    def run():
        state = TopAlignmentState(seq, exchange, gaps, engine="lanes")
        static_group_schedule(state, K, 4)
        return state

    benchmark.group = "speculation"
    state = benchmark.pedantic(run, rounds=1, iterations=1)
    overhead = (state.stats.alignments - sequential_alignments) / sequential_alignments
    save_table(
        results_dir,
        "speculation_lanes",
        "§5.1 — lane-group (static) speculation overhead\n"
        f"sequential alignments: {sequential_alignments}\n"
        f"grouped alignments:    {state.stats.alignments}\n"
        f"overhead:              {overhead:.2%} (paper: <0.70 % at titin scale)",
    )
    assert overhead >= 0.0
    # Scaled-down inputs inflate the fraction; it must still stay modest.
    assert overhead < 0.5


def test_distributed_speculation(benchmark, sequential_alignments, results_dir):
    """Dynamic speculative scheduling computes extra alignments (<= 8.4 %
    in the paper; more here because rounds are tiny at m=300)."""
    exchange, gaps = default_scoring()
    seq = bench_sequence(LENGTH)
    oracle = AlignmentOracle(seq, exchange, gaps)

    benchmark.group = "speculation"
    result = benchmark.pedantic(
        lambda: ClusterSimulator(
            oracle, ClusterConfig(processors=8, tier="sse")
        ).run(K),
        rounds=1,
        iterations=1,
    )
    overhead = (
        result.alignments_executed - sequential_alignments
    ) / sequential_alignments
    save_table(
        results_dir,
        "speculation_distributed",
        "§5.2 — distributed dynamic speculation overhead (P=8)\n"
        f"sequential alignments: {sequential_alignments}\n"
        f"speculative executed:  {result.alignments_executed}\n"
        f"overhead:              {overhead:.2%} (paper: <=8.4 % at titin scale)",
    )
    assert overhead >= 0.0


def test_static_speculation_cheaper_than_dynamic(
    benchmark, sequential_alignments
):
    """The paper's ordering: lane groups waste less than wide dynamic
    speculation, because neighbours 'probably have to be computed
    anyway'."""
    exchange, gaps = default_scoring()
    seq = bench_sequence(LENGTH)

    def both():
        state = TopAlignmentState(seq, exchange, gaps, engine="lanes")
        static_group_schedule(state, K, 4)
        oracle = AlignmentOracle(seq, exchange, gaps)
        wide = ClusterSimulator(
            oracle, ClusterConfig(processors=32, tier="sse")
        ).run(K)
        return state.stats.alignments, wide.alignments_executed

    benchmark.group = "speculation"
    grouped, dynamic_wide = benchmark.pedantic(both, rounds=1, iterations=1)
    assert grouped <= dynamic_wide
