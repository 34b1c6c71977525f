#!/usr/bin/env python3
"""One end-to-end, layer-attributed benchmark of the repro program.

    python benchmarks/e2e/run.py                      # all workloads, untraced + traced
    python benchmarks/e2e/run.py --workload titin_find --seed 7 --seconds 10 --trace 0

With ``--workload`` this process measures that one workload and prints,
as its last line, the JSON object ``BENCHMARK.json``'s contract asks
for.  Without it, every workload runs in a fresh child process, first
untraced (end-to-end metrics) and then traced (per-layer metrics).
README.md documents workloads, metrics and how to cite them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
sys.path[:0] = [str(REPO_ROOT / "src")]

DEFAULT_SEED = 1912
WORK_ROOT = HERE / ".work"
DEFAULT_OUT = HERE / "out"
#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Untraced passes a traced run measures its overhead against.
TRACE_BASE_PASSES = 3


def benchmark_spec() -> dict[str, Any]:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- environment ------------------------------------------------------------


def environment(args: argparse.Namespace, size: dict[str, int]) -> dict[str, Any]:
    import numpy

    nproc = os.cpu_count() or 1
    load = os.getloadavg()[0]
    commit = "unknown"
    if (REPO_ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(REPO_ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        commit = done.stdout.strip() or commit
    noisy = load > nproc / 2
    if noisy:
        print(
            f"warning: load average {load:.2f} > nproc/2 ({nproc}/2): "
            "this run is marked noisy",
            file=sys.stderr,
        )
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "load_average_at_start": load,
        "noisy": noisy,
        "seed": args.seed,
        "corpus": args.corpus,
        "seconds": args.seconds,
        "quick": args.quick,
        "size": size,
    }


# -- set-up time ------------------------------------------------------------


def setup_probe(args: argparse.Namespace) -> int:
    """Child mode: get ready for the warm-up pass, say so, tear down."""
    import repro  # noqa: F401 - what a user's process imports
    import repro.cli  # noqa: F401
    from inputs import present
    from workloads import WORKLOADS, make_path

    workload = WORKLOADS[args.workload]
    size = workload.quick if args.quick else workload.size
    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=WORK_ROOT))
    records = present(workload.make_records(args.corpus, size, args.seconds), args.seed)
    path = make_path(workload, records, workdir, args.seed)
    try:
        path.setup()
        print("ready", flush=True)
    finally:
        path.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(args: argparse.Namespace, repeats: int) -> list[float]:
    """Seconds from child start to "ready", one fresh interpreter each."""
    command = [
        sys.executable, str(HERE / "run.py"), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--corpus", str(args.corpus), "--seconds", str(args.seconds),
    ] + (["--quick"] if args.quick else [])
    samples = []
    for _ in range(repeats):
        started = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            assert child.stdout is not None
            line = child.stdout.readline()
            elapsed = time.perf_counter() - started
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed ({child.returncode}): {line!r}")
        samples.append(elapsed)
    return samples


# -- one workload -----------------------------------------------------------


def check(results, reference: dict[str, str]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every operation of ``results``."""
    attempted = failed = 0
    problems: list[str] = []
    for result in results:
        problems.extend(result.errors)
        for rid, key in result.keys:
            attempted += 1
            if reference.get(rid) != key:
                failed += 1
                problems.append(f"{rid}: output differs from the reference")
    return attempted, failed, problems


def run_workload(args: argparse.Namespace) -> dict[str, Any]:
    from inputs import base_id, present
    from pipeline import REFERENCE
    from reference import document_keys, load_golden, write_golden
    from spans import Tracer
    from stats import percentile, quartiles, summary
    from workloads import MIN_PASSES, WORKLOADS, inprocess_pass, make_path, self_checks

    workload = WORKLOADS[args.workload]
    size = workload.quick if args.quick else workload.size
    env = environment(args, size)
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT))
    try:
        setup_samples = measure_setup(args, 1 if args.quick else SETUP_REPEATS)
        records = present(
            workload.make_records(args.corpus, size, args.seconds), args.seed
        )
        path = make_path(workload, records, workdir, args.seed)
        tracer = Tracer(workload.name) if args.trace else None
        traced = None
        path.setup()
        try:
            warm = path.warm_up()
            if args.quick:
                passes = path.timed_passes(1, 0.0)
            elif args.trace:
                passes = path.timed_passes(TRACE_BASE_PASSES, 0.0)
            else:
                passes = path.timed_passes(MIN_PASSES, args.seconds)
            if tracer is not None:
                traced = path.run_pass(tracer)
        finally:
            path.close()
        peak_rss_mb = path.peak_rss_mb()

        # Everything below runs after the measurement: the reference
        # pass and the analysis must not show up in wall or RSS.
        reference = None
        if not args.quick and not args.regen_golden:
            golden = load_golden(workload.name, args.corpus, size)
            if golden is not None and all(base_id(rid) in golden for rid, _ in records):
                reference = {rid: golden[base_id(rid)] for rid, _ in records}
        reference_output = None
        if reference is None or args.trace:
            # Pruning, index and batching all off.
            reference_output = inprocess_pass(workload.scoring, records, workdir, REFERENCE)
            computed = document_keys(reference_output.document)
            if reference is None:
                reference = computed
            elif reference != computed:
                raise RuntimeError("reference pass disagrees with the golden keys")
        if args.regen_golden:
            keys = {base_id(rid): key for rid, key in reference.items()}
            print(f"wrote {write_golden(workload.name, args.corpus, size, keys)}")

        checked = [r for r in [warm, *passes, traced] if r is not None]
        attempted, failed, problems = check(checked, reference)

        walls = [p.wall for p in passes]
        latencies = [x for p in passes for x in p.latencies]
        # Interference on a shared machine only ever adds time, so the
        # lower quartile is the steadiest estimate of what a pass costs;
        # the job percentiles keep the disturbed passes in.
        wall = quartiles(walls)[0]
        median = statistics.median(latencies)
        # The highest percentile with ten samples beyond it: the 90th
        # from 100 jobs on, the median below that.
        tail = percentile(latencies, 0.9) if len(latencies) >= 100 else median
        end_to_end = {
            "wall_s": {"value": wall, "unit": "s", **summary(walls)},
            "job_p50_s": {"value": median, "unit": "s", **summary(latencies)},
            "job_p90_s": {"value": tail, "unit": "s", **summary(latencies)},
            "jobs_per_s": {
                "value": len(latencies) / len(passes) / wall, "unit": "1/s",
                "n": len(latencies),
            },
            "setup_s": {
                "value": statistics.median(setup_samples), "unit": "s",
                **summary(setup_samples),
            },
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB", "n": 1},
        }
        per_layer: dict[str, dict[str, Any]] = {}
        values = None
        if tracer is not None:
            from analysis import analyse

            assert traced is not None and reference_output is not None
            values, more_problems = analyse(
                workload, path, records, passes, traced, tracer,
                reference_output, workdir, args.seed, 1 if args.quick else 3,
            )
            # BENCHMARK.json declares every per-layer metric and its unit.
            units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
            per_layer = {
                name: {"value": value, "unit": units[name]}
                for name, value in values.items()
            }
            problems.extend(more_problems)
            args.out.mkdir(parents=True, exist_ok=True)
            tracer.write(args.out / f"trace-{workload.name}.json")
        # --quick sizes are too small to stress anything: no self-checks.
        checks = {} if args.quick else self_checks(workload, passes[-1], path, values)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = failed == 0 and not problems and all(ok for ok, _ in checks.values())
    return {
        "workload": workload.name,
        "why": workload.why,
        "traced": bool(args.trace),
        "environment": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "problems": problems[:20],
        "self_checks": {k: {"ok": ok, "detail": d} for k, (ok, d) in checks.items()},
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


# -- output -----------------------------------------------------------------


def contract_line(result: dict[str, Any]) -> str:
    """The last stdout line: exactly the metrics BENCHMARK.json declares."""
    spec = benchmark_spec()
    section = "per_layer" if result["traced"] else "end_to_end"
    metrics = {
        m["name"]: {
            "value": result[section][m["name"]]["value"],
            "unit": result[section][m["name"]]["unit"],
        }
        for m in spec[section]
    }
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def print_result(result: dict[str, Any]) -> None:
    mode = "traced" if result["traced"] else "untraced"
    print(f"== {result['workload']} ({mode}) — {result['why']}")
    for name, m in result["end_to_end"].items():
        extra = ""
        if "median" in m:
            extra = (
                f"  [min {m['min']:.4g}  q1 {m['q1']:.4g}  median {m['median']:.4g}"
                f"  q3 {m['q3']:.4g}  max {m['max']:.4g}  n {m['n']}]"
            )
        print(f"  {name:<44s} {m['value']:>14.6g} {m['unit']:<8s}{extra}")
    print(
        f"  {'failed_share':<44s} {result['failed_share']:>14.6g} {'share':<8s}"
        f"  [{result['failed']} of {result['attempted']}]"
    )
    for name, m in result["per_layer"].items():
        print(f"  {name:<44s} {m['value']:>14.6g} {m['unit']}")
    for name, check in result["self_checks"].items():
        print(f"  self-check {name}: {'ok' if check['ok'] else 'FAILED'} ({check['detail']})")
    for problem in result["problems"]:
        print(f"  problem: {problem}")


def write_result(result: dict[str, Any], out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    mode = "traced" if result["traced"] else "untraced"
    seed = result["environment"]["seed"]
    path = out / f"result-{result['workload']}-{mode}-s{seed}.json"
    path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a fresh child: untraced, then traced."""
    from workloads import WORKLOADS

    modes = ["1"] if args.quick or args.trace else ["0", "1"]
    status = 0
    for name in WORKLOADS:
        for trace in modes:
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--corpus", str(args.corpus),
                "--seconds", str(args.seconds), "--trace", trace, "--out", str(args.out),
            ]
            command += ["--quick"] if args.quick else []
            command += ["--regen-golden"] if args.regen_golden and trace == "0" else []
            done = subprocess.run(command, check=False)
            status = status or done.returncode
    return status


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="how the corpus is presented: record order and ids, "
                        "service schedule")
    parser.add_argument("--corpus", type=int, default=None,
                        help="seed of the residues themselves (default: inputs.CORPUS_SEED; "
                        "golden/ covers only the default)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="record spans and report the per-layer metrics")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory for result-*.json and trace-*.json")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes, one pass, traced runs only (smoke test)")
    parser.add_argument("--regen-golden", action="store_true",
                        help="rewrite golden/ from a fresh reference pass")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(benchmark_spec()["run_seconds"])
    if args.corpus is None:
        from inputs import CORPUS_SEED

        args.corpus = CORPUS_SEED
    return args


def main(argv: list[str] | None = None) -> int:
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {REPO_ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # Die through the finally blocks, so that servers and nodes are
    # stopped and scratch files removed on SIGTERM too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    if args.setup_probe:
        WORK_ROOT.mkdir(exist_ok=True)
        return setup_probe(args)
    if args.workload is None:
        return run_all(args)
    result = run_workload(args)
    print_result(result)
    write_result(result, args.out)
    print(contract_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
