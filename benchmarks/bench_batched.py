"""Speculative lane-batched driver — throughput and waste vs batch width.

The best-first driver (``repro.core.session``) realigns the heap's top G
stale tasks per lockstep engine batch.  This bench measures what that
buys on one host: cells/second across G ∈ {1, 4, 8} with the lane
engine, against the sequential vector baseline, asserting bit-identical
top alignments throughout and recording the speculation waste ratio.

Run under pytest (``pytest benchmarks/bench_batched.py``) for the full
table, or directly for the CI smoke artifact::

    python benchmarks/bench_batched.py --length 120 --top-alignments 5 \
        --out BENCH_batched.json
"""

import argparse
import json

from repro.bench import batched_report, batched_rows

LENGTH = 240
K = 10
GROUPS = (1, 4, 8)


def _row(report, engine_prefix, group):
    for row in report["rows"]:
        if row["engine"].startswith(engine_prefix) and row["group"] == group:
            return row
    raise KeyError((engine_prefix, group))


def test_batched_driver(benchmark, results_dir):
    """G=8 beats G=1 lane throughput; waste stays a modest fraction."""
    # Imported lazily: the __main__ smoke entry must run without pytest.
    from conftest import save_table

    benchmark.group = "batched"
    report = benchmark.pedantic(
        lambda: batched_report(LENGTH, K, GROUPS), rounds=1, iterations=1
    )
    save_table(results_dir, "batched", batched_rows(report=report).render())
    # batched_report itself asserts every config returns bit-identical
    # top alignments; re-check the flag made it into the payload.
    assert report["identical_tops"]
    g1 = _row(report, "lanes", 1)
    g8 = _row(report, "lanes", 8)
    # The acceptance bar: batching 8 lanes amortises per-call overhead
    # into >= 1.5x engine throughput (locally ~4x).
    assert g8["cells_per_second"] >= 1.5 * g1["cells_per_second"]
    # Sequential configurations never speculate...
    assert g1["speculative_waste"] == 0
    assert _row(report, "vector", 1)["speculative_waste"] == 0
    # ...and G=8 waste stays a bounded fraction of all alignments.
    assert 0.0 <= g8["waste_ratio"] < 0.5


def test_waste_grows_with_group():
    """Wider batches speculate more; alignments grow only mildly."""
    report = batched_report(LENGTH, K, (1, 2, 4, 8))
    lanes = [r for r in report["rows"] if r["engine"].startswith("lanes")]
    wastes = [r["speculative_waste"] for r in lanes]
    assert wastes == sorted(wastes)
    g1, g8 = lanes[0], lanes[-1]
    # Speculation recomputes some alignments, but the best-first queue
    # keeps the overhead far from the G-fold worst case.
    assert g8["alignments"] < 1.5 * g1["alignments"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--length", type=int, default=LENGTH)
    parser.add_argument("-k", "--top-alignments", type=int, default=K)
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the raw numbers as JSON (BENCH_batched.json)")
    parser.add_argument("--emit-metrics", default=None, metavar="PATH",
                        help="enable repro.obs and dump the registry snapshot "
                             "+ trace trees as JSON after the run")
    args = parser.parse_args()
    if args.emit_metrics:
        from repro import obs

        obs.enable()
    report = batched_report(args.length, args.top_alignments, GROUPS)
    print(batched_rows(report=report).render())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote {args.out}")
    if args.emit_metrics:
        from repro import obs

        obs.write_snapshot(args.emit_metrics)
        print(f"wrote {args.emit_metrics}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
