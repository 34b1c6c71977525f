"""Tests of the benchmark itself (not part of the tier-1 ``testpaths``).

Run explicitly from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
REPO_ROOT = E2E.parents[1]
sys.path[:0] = [str(REPO_ROOT / "src"), str(E2E)]

import inputs  # noqa: E402
import spans  # noqa: E402
from compare import verdict  # noqa: E402
from pipeline import DEFAULT, Pipeline  # noqa: E402
from reference import document_keys  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_shape():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert 1 <= SPEC["run_seconds"] <= 60
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_quick_run_emits_every_named_metric(tmp_path):
    started = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--quick", "--out", str(tmp_path)],
        capture_output=True, text=True, check=False,
    )
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert elapsed < 60, f"--quick took {elapsed:.1f}s"
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in WORKLOADS:
        (path,) = tmp_path.glob(f"result-{name}-traced-*.json")
        result = json.loads(path.read_text(encoding="utf-8"))
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["end_to_end"].items()} == end_to_end
        assert {k: v["unit"] for k, v in result["per_layer"].items()} == per_layer
        rows = json.loads((tmp_path / f"trace-{name}.json").read_text(encoding="utf-8"))
        assert rows and {"id", "name", "start", "end", "parent", "workload"} == set(rows[0])
        assert all(row["workload"] == name for row in rows)
    # The last stdout line of the last child is the driver's contract line.
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == set(per_layer)


def test_span_self_time_arithmetic():
    s = spans.Span
    tree = [
        s(0, "pass", 0.0, 10.0, None),
        s(1, "scan", 1.0, 8.0, 0),
        s(2, "find", 2.0, 5.0, 1),
        s(3, "find", 5.0, 7.0, 1),
        s(4, "engine", 2.5, 4.5, 2),
        # Two overlapping children (concurrent clients): the covered
        # part of the parent is their union, not their sum.
        s(5, "job", 8.0, 9.5, 0),
        s(6, "job", 8.5, 10.0, 0),
    ]
    own = spans.self_times(tree)
    assert own["pass"] == pytest.approx(10.0 - 7.0 - 2.0)
    assert own["scan"] == pytest.approx(7.0 - 5.0)
    assert own["find"] == pytest.approx((3.0 - 2.0) + 2.0)
    assert own["engine"] == pytest.approx(2.0)
    assert spans.totals(tree)["find"] == pytest.approx(5.0)
    # Without overlap, self times add up to the root's duration.
    serial = tree[:5]
    assert sum(spans.self_times(serial).values()) == pytest.approx(10.0)


def test_tracer_nests_and_writes(tmp_path):
    tracer = spans.Tracer("w")
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    later = tracer.add("added", inner.start, inner.end, outer)
    assert outer.parent is None and inner.parent == outer.id and later.parent == outer.id
    assert outer.start <= inner.start <= inner.end <= outer.end
    tracer.write(tmp_path / "t.json")
    rows = json.loads((tmp_path / "t.json").read_text(encoding="utf-8"))
    assert [r["name"] for r in rows] == ["outer", "inner", "added"]


@pytest.mark.parametrize("name", ["titin_find", "dna_scan_dense"])
def test_delegating_engine_is_transparent(name, tmp_path):
    workload = WORKLOADS[name]
    fasta = inputs.to_fasta(workload.make_records(5, workload.quick, 1.0))  # corpus 5
    plain = Pipeline(workload.scoring, tmp_path, DEFAULT).run(fasta)
    tracer = spans.Tracer(name)
    traced = Pipeline(workload.scoring, tmp_path, DEFAULT, tracer).run(fasta)
    assert document_keys(traced.document) == document_keys(plain.document)
    tops = lambda out: [  # noqa: E731
        [(a.r, a.score, a.pairs) for a in r.result.top_alignments] for r in out.reports
    ]
    assert tops(traced) == tops(plain)
    stats = [r.result.stats for r in traced.reports]
    assert traced.engine.cells == sum(s.cells for s in stats)
    assert traced.engine.calls == sum(s.name == "align.engine" for s in tracer.spans)
    # Self times of the span tree account for the whole traced pass.
    assert sum(spans.self_times(tracer.spans).values()) == pytest.approx(
        traced.wall, rel=0.05
    )
    assert [s.cells for s in stats] == [r.result.stats.cells for r in plain.reports]


def test_inputs_depend_only_on_the_seeds():
    for workload in WORKLOADS.values():
        corpus = workload.make_records(11, workload.quick, 2.0)
        assert corpus == workload.make_records(11, workload.quick, 2.0)
        assert corpus != workload.make_records(12, workload.quick, 2.0)
        # The run seed changes what the program sees, never the residues.
        shown = inputs.present(corpus, 3)
        assert shown == inputs.present(corpus, 3) != inputs.present(corpus, 4)
        assert sorted(t for _, t in shown) == sorted(t for _, t in corpus)
        assert {inputs.base_id(rid) for rid, _ in shown} == {rid for rid, _ in corpus}


def test_job_schedule_repeats_exactly_and_only_settled_specs():
    for seed in range(20):
        order = inputs.job_schedule(seed, distinct=30, repeats=10)
        assert len(order) == 40 and sorted(set(order)) == list(range(30))
        newest = -1
        for index in order:
            if index > newest:
                assert index == newest + 1
                newest = index
            else:
                assert index < newest - 1  # never one of the two newest


def test_verdict_rules():
    base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01]
    assert verdict(base, base, "lower", 0.10) == "same"
    assert verdict(base, [x * 1.2 for x in base], "lower", 0.10) == "worse"
    assert verdict(base, [x * 0.8 for x in base], "lower", 0.10) == "better"
    assert verdict(base, [x * 0.8 for x in base], "higher", 0.10) == "worse"
    noisy = [1.0, 1.3, 0.8, 1.2, 0.7, 1.1, 0.9, 1.4, 0.75, 1.25]
    assert verdict(noisy, [x * 1.05 for x in noisy], "lower", 0.10) == "unresolved"
    assert verdict([1.0], [1.05], "lower", 0.10) == "same"
    assert verdict([1.0], [1.2], "lower", 0.10) == "worse"
