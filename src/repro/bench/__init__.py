"""Benchmark harness helpers (used by ``benchmarks/`` and the examples)."""

from .harness import (
    BenchTable,
    bench_sequence,
    default_scoring,
    figure8_series,
    realignment_rows,
    table1_rows,
    table2_rows,
)

__all__ = [
    "BenchTable",
    "bench_sequence",
    "default_scoring",
    "table1_rows",
    "table2_rows",
    "figure8_series",
    "realignment_rows",
]
