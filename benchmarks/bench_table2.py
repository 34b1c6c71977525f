"""Table 2 — alignment times per instruction tier.

Paper (largest titin split, 17175x17175)::

                 conventional   SSE        SSE2
    Pentium III  5.2 s / 1      3.0 s / 4  —          -> 6.9x
    Pentium 4    2.7 s / 1      1.8 s / 4  2.2 s / 8  -> 6.0x / 9.8x

Our tiers: pure-Python scalar ("conventional"), numpy vector (one
matrix), and the 4/8-lane int16 batch engines ("SSE"/"SSE2").  The
shape to reproduce: batched vector execution beats the conventional
kernel by a large factor, and wider batches amortise better per matrix.
The absolute factors are *much* bigger here because CPython's
interpreter overhead dwarfs a compiled scalar loop — EXPERIMENTS.md
reports both numbers side by side.
"""

import pytest

from repro.align import AlignmentProblem, LanesEngine, get_engine

from conftest import save_table
from figures import bench_sequence, table2_rows

SIZE = 260  # matrix side for the numpy tiers
SCALAR_SIZE = 100  # the scalar engine is ~1000x slower; keep it feasible


def _problems(scoring, n, count):
    exchange, gaps = scoring
    seq = bench_sequence(2 * n + count)
    return [
        AlignmentProblem(seq.codes[: n + i], seq.codes[n + i :], exchange, gaps)
        for i in range(count)
    ]


def test_conventional_scalar(benchmark, scoring):
    problems = _problems(scoring, SCALAR_SIZE, 1)
    benchmark.group = "table2"
    benchmark.extra_info["matrices"] = 1
    benchmark.extra_info["cells"] = problems[0].cells
    engine = get_engine("scalar")
    benchmark.pedantic(lambda: engine.last_rows_batch(problems), rounds=2, iterations=1)


def test_vector_single(benchmark, scoring):
    problems = _problems(scoring, SIZE, 1)
    benchmark.group = "table2"
    benchmark.extra_info["matrices"] = 1
    engine = get_engine("vector")
    benchmark.pedantic(lambda: engine.last_rows_batch(problems), rounds=5, iterations=1)


def test_sse_4lane_batch(benchmark, scoring):
    problems = _problems(scoring, SIZE, 4)
    benchmark.group = "table2"
    benchmark.extra_info["matrices"] = 4
    engine = LanesEngine(lanes=4, dtype="int16")
    benchmark.pedantic(lambda: engine.last_rows_batch(problems), rounds=5, iterations=1)


def test_sse2_8lane_batch(benchmark, scoring):
    problems = _problems(scoring, SIZE, 8)
    benchmark.group = "table2"
    benchmark.extra_info["matrices"] = 8
    engine = LanesEngine(lanes=8, dtype="int16")
    benchmark.pedantic(lambda: engine.last_rows_batch(problems), rounds=5, iterations=1)


def test_table2_shape(benchmark, results_dir):
    """Vectorised tiers beat the conventional kernel; per-matrix cost
    drops as lanes widen (the paper's superlinear-amortisation story)."""
    benchmark.group = "table2-shape"
    table = benchmark.pedantic(
        lambda: table2_rows(size=SIZE, scalar_size=SCALAR_SIZE),
        rounds=1,
        iterations=1,
    )
    save_table(results_dir, "table2", table.render())
    rates = {row[0]: row[3] for row in table.rows}
    # SIMD-style tiers must crush the conventional kernel...
    assert rates["sse"] > 5 * rates["conventional"]
    assert rates["sse2"] > 5 * rates["conventional"]
    # ...and wider lanes must amortise at least as well as narrower.
    assert rates["sse2"] > 0.9 * rates["sse"]
    # Batching several matrices beats aligning one at a time.
    assert rates["sse2"] > rates["vector"]
