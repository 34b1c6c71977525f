"""§4.1 design-space claim — wavefront vs row-wise vectorisation.

"It is possible to compute the entries diagonally ... such that all
entries in a diagonal can be computed independently, but the
administrative overhead is large."

The paper chose coarse-grained lane parallelism over the wavefront for
this reason; this bench measures both on identical work and asserts the
paper's judgment: the diagonal traversal's gather/scatter bookkeeping
loses to the row-vectorised engine, and the lane batch wins overall.
"""

import time

import pytest

from repro.align import AlignmentProblem, LanesEngine, VectorEngine

from comparators import DiagonalEngine
from conftest import save_table
from figures import bench_sequence, default_scoring

SIZE = 300


@pytest.fixture(scope="module")
def problem():
    exchange, gaps = default_scoring()
    seq = bench_sequence(2 * SIZE)
    return AlignmentProblem(seq.codes[:SIZE], seq.codes[SIZE:], exchange, gaps)


def test_wavefront(benchmark, problem):
    benchmark.group = "diagonal"
    engine = DiagonalEngine()
    benchmark.pedantic(lambda: engine.last_row(problem), rounds=3, iterations=1)


def test_row_vectorised(benchmark, problem):
    benchmark.group = "diagonal"
    engine = VectorEngine()
    benchmark.pedantic(lambda: engine.last_row(problem), rounds=3, iterations=1)


def test_wavefront_overhead_claim(benchmark, problem, results_dir):
    benchmark.group = "diagonal"

    def measure():
        timings = {}
        for name, engine in (
            ("wavefront", DiagonalEngine()),
            ("row-vector", VectorEngine()),
            ("lanes x4", LanesEngine(lanes=4, dtype="int16")),
        ):
            t0 = time.perf_counter()
            if name == "lanes x4":
                engine.last_rows_batch([problem] * 4)
                elapsed = (time.perf_counter() - t0) / 4
            else:
                engine.last_row(problem)
                elapsed = time.perf_counter() - t0
            timings[name] = elapsed
        return timings

    timings = benchmark.pedantic(measure, rounds=1, iterations=1)
    lines = [
        f"§4.1 — wavefront vs row-wise vectorisation ({SIZE}x{SIZE} matrix)",
        "paper: diagonal-wise parallelism has 'large administrative",
        "overhead'; lane batching was chosen instead.  Measured per-matrix:",
    ]
    for name, secs in timings.items():
        lines.append(f"  {name:<11} {secs * 1e3:8.2f} ms")
    save_table(results_dir, "diagonal", "\n".join(lines))
    # The paper's judgment, asserted.
    assert timings["row-vector"] < timings["wavefront"]
    assert timings["lanes x4"] < timings["wavefront"]
