"""§3 claim — the best-first queue avoids 90–97 % of realignments.

"We repeatedly select the subsequence pair with the highest score from
its most recent alignment ... it typically reduces the number of
realignments by 90–97 %."

The avoided fraction is workload-dependent: it grows with sequence
length (more splits whose stale upper bound never reaches the head).
We assert substantial avoidance at small scale and that it *improves*
with length, heading toward the paper's regime.
"""

import pytest

from repro.core import find_top_alignments

from conftest import save_table
from figures import bench_sequence, default_scoring, realignment_rows

LENGTHS = (150, 250, 400)
K = 10


@pytest.mark.parametrize("length", LENGTHS)
def test_realignment_counters(benchmark, length):
    exchange, gaps = default_scoring()
    seq = bench_sequence(length)
    benchmark.group = "realign"
    _, stats = benchmark.pedantic(
        lambda: find_top_alignments(seq, K, exchange, gaps, group=1),
        rounds=1,
        iterations=1,
    )
    naive = (K - 1) * (length - 1)
    assert 0 < stats.realignments < naive


def test_realignment_avoidance_shape(benchmark, results_dir):
    benchmark.group = "realign"
    table = benchmark.pedantic(
        lambda: realignment_rows(lengths=LENGTHS, k=K), rounds=1, iterations=1
    )
    save_table(results_dir, "realign", table.render())
    avoided = [row[4] for row in table.rows]  # percentages
    # Substantial avoidance everywhere...
    assert all(a > 50.0 for a in avoided), avoided
    # ...and the avoided fraction grows with length toward the paper's
    # 90-97 % titin-scale figure.
    assert avoided[-1] > avoided[0]
    assert avoided[-1] > 75.0
