"""Figure 8 — speed improvements vs processor count (simulated DAS-2).

Paper (titin, 64 dual-P3 nodes, Myrinet): near-perfect scaling for the
first top alignment (831x at 128 CPUs vs the sequential conventional
implementation; 123x vs the SSE version; 96.1 % efficiency), with
speedups decreasing as more top alignments are requested (~500x at
k=100) because realignment rounds expose limited parallelism and the
traceback is sequential.

Two complementary reproductions:

* **real-workload sweep** — the event simulator executes the actual
  algorithm (real alignments, memoised) on a scaled pseudo-titin, and
  the k-ordering/monotonicity shape is asserted;
* **titin-scale k=1** — for the first top alignment the schedule is
  score-independent, so the simulator runs at the paper's full
  m = 34350 and must land near the published 831x / 123x / 96 %.
"""

import pytest

from repro.simulate import ClusterConfig
from repro.simulate.firstpass import simulate_first_pass

from conftest import save_table
from figures import figure8_series

LENGTH = 360
KS = (1, 2, 5, 10, 25)
PROCS = (2, 4, 8, 16, 32, 64, 128)


@pytest.fixture(scope="module")
def series():
    return figure8_series(length=LENGTH, ks=KS, processors=PROCS)


def test_figure8_series(benchmark, series, results_dir):
    """Regenerate the six curves and assert their shape."""
    benchmark.group = "figure8"
    benchmark.pedantic(
        lambda: figure8_series(length=LENGTH, ks=(1,), processors=(2, 128)),
        rounds=1,
        iterations=1,
    )
    lines = ["Figure 8 — speed improvement vs processors (simulated DAS-2)",
             f"pseudo-titin length={LENGTH}; improvement vs sequential "
             "conventional run / vs one-CPU SSE run"]
    for k, points in sorted(series.items()):
        lines.append(
            f"k={k:3d}  "
            + "  ".join(f"P={p}:{s:.0f}/{v:.0f}" for p, s, v in points)
        )
    save_table(results_dir, "figure8", "\n".join(lines))
    # Raw grid as CSV for replotting.
    from figures import bench_sequence, default_scoring
    from repro.simulate.sweep import records_to_csv, sweep_cluster

    exchange, gaps = default_scoring()
    records = sweep_cluster(
        bench_sequence(LENGTH), exchange, gaps, processors=PROCS, ks=KS
    )
    records_to_csv(records, results_dir / "figure8.csv")

    for k, points in series.items():
        speedups = [s for _, s, _ in points]
        # Monotone: more processors never hurt.
        assert speedups == sorted(speedups), (k, speedups)
        # Sublinear bound: <= workers x tier-improvement.
        for (p, s, _) in points:
            assert s <= (p - 1) * 6.95

    # Fewer top alignments scale better (the paper's curve ordering)
    # at the largest processor count.
    at_max = {k: points[-1][1] for k, points in series.items()}
    ordered = [at_max[k] for k in sorted(series)]
    assert ordered == sorted(ordered, reverse=True), at_max


def test_first_alignment_near_perfect_scaling(benchmark, series):
    """'The improvements for finding the first top alignment are nearly
    perfect' — at small P the scaled workload already shows it."""
    benchmark.group = "figure8"
    points = benchmark.pedantic(
        lambda: {p: s_sse for p, _, s_sse in series[1]}, rounds=1, iterations=1
    )
    assert points[2] >= 0.7  # 1 worker at SSE tier ~ the SSE baseline
    assert points[4] >= 2.0  # 3 workers


def test_figure8_titin_scale_headline(benchmark, results_dir):
    """k=1 at the paper's true m=34350: must land near 831x / 123x / 96 %."""
    m = 34350
    benchmark.group = "figure8-titin"
    conv = simulate_first_pass(
        m, ClusterConfig(processors=1, tier="conventional", dedicated_master=False)
    )
    sse = simulate_first_pass(
        m, ClusterConfig(processors=1, tier="sse", dedicated_master=False)
    )
    r128 = benchmark.pedantic(
        lambda: simulate_first_pass(m, ClusterConfig(processors=128, tier="sse")),
        rounds=1,
        iterations=1,
    )
    vs_conv = conv.makespan / r128.makespan
    vs_sse = sse.makespan / r128.makespan
    efficiency = vs_sse / 127
    save_table(
        results_dir,
        "figure8_titin",
        "Figure 8 headline (titin m=34350, k=1, P=128, simulated)\n"
        f"improvement vs sequential conventional: {vs_conv:.0f}  (paper: 831)\n"
        f"improvement vs one-CPU SSE:             {vs_sse:.1f} (paper: 123)\n"
        f"efficiency:                             {efficiency:.1%} (paper: 96.1%)",
    )
    assert 700 <= vs_conv <= 880
    assert 110 <= vs_sse <= 127
    assert 0.90 <= efficiency <= 1.0
