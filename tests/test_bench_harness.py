"""Tests for the figure runner itself, ``benchmarks/figures.py`` (small
parameters)."""

import pytest

from benchmarks.figures import (
    BenchTable,
    bench_sequence,
    default_scoring,
    figure8_series,
    realignment_rows,
    table1_rows,
)


class TestBenchTable:
    def test_add_and_render(self):
        table = BenchTable("t", ["a", "b"])
        table.add(1, 2.5)
        table.add("x", 3.0)
        text = table.render()
        assert text.splitlines()[0] == "t"
        assert "2.5" in text and "x" in text

    def test_add_arity_checked(self):
        table = BenchTable("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add(1)

    def test_notes_rendered(self):
        table = BenchTable("t", ["a"])
        table.notes.append("hello")
        assert "note: hello" in table.render()


class TestWorkloads:
    def test_bench_sequence_deterministic(self):
        assert bench_sequence(100) == bench_sequence(100)

    def test_default_scoring(self):
        exchange, gaps = default_scoring()
        assert exchange.name == "blosum62"
        assert (gaps.open_, gaps.extend) == (8.0, 1.0)


class TestTable1:
    def test_rows_and_consistency(self):
        table = table1_rows(lengths=(60, 80), k=3)
        assert len(table.rows) == 2
        for length, t_old, t_new, speedup, old_n, new_n in table.rows:
            assert t_old > 0 and t_new > 0
            assert speedup == pytest.approx(t_old / t_new)
            assert new_n < old_n


class TestRealignmentRows:
    def test_percentages(self):
        table = realignment_rows(lengths=(80,), k=4)
        ((length, k, performed, naive, avoided),) = table.rows
        assert naive == 3 * 79
        assert avoided == pytest.approx(100.0 * (1 - performed / naive))


class TestFigure8Series:
    def test_structure(self):
        series = figure8_series(length=80, ks=(1, 2), processors=(2, 4))
        assert set(series) == {1, 2}
        for points in series.values():
            assert [p for p, _, _ in points] == [2, 4]
            for _, vs_conv, vs_sse in points:
                assert vs_conv > 0 and vs_sse > 0
                # Conventional baseline is ~6.9x slower than SSE.
                assert vs_conv > vs_sse
