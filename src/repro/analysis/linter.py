"""The ``repro lint`` driver.

Two analysis layers share one driver:

* **per-file rules** — each file is parsed once and dispatched through
  the registered AST rules (RPR001, RPR010, RPR011, RPR017/RPR020) and
  the RPR003 lock-discipline detector;
* **the whole-program rule** — the same parse also feeds
  :func:`repro.analysis.graph.extract_module_facts`; the resulting
  facts build a :class:`~repro.analysis.graph.ProgramGraph` over which
  the interprocedural rule RPR013 runs
  (:mod:`repro.analysis.interproc`).

Every run is cold: all four trees lint in a few seconds, an order of
magnitude under the CI budget, so nothing is cached between runs.

Extra driver modes: ``--format sarif`` (GitHub code scanning),
``--graph callers|callees <symbol>`` (interactive call-graph
queries), ``--changed`` (git-diff files plus reverse import
dependencies), ``--stats`` (machine-readable timing/size JSON).

Exit status: 0 when no unsuppressed error-severity findings remain,
1 otherwise, 2 on usage errors — so CI can run
``repro lint src/repro benchmarks`` directly.
"""

from __future__ import annotations

import argparse
import ast
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .diagnostics import Diagnostic, parse_waivers
from .graph import ModuleFacts, ProgramGraph, extract_module_facts
from .interproc import rule_blocking_reachability
from .locks import check_lock_discipline
from .rules import FILE_RULES

__all__ = [
    "collect_files",
    "lint_file",
    "lint_paths",
    "analyze_paths",
    "AnalysisResult",
    "active_rules",
    "main",
]

#: Directories never worth linting.  ``fixtures`` holds the analysis
#: test corpus of *deliberately* broken mini-packages.
_SKIP_DIRS = {
    ".git",
    "__pycache__",
    ".hypothesis",
    ".pytest_cache",
    ".benchmarks",
    "build",
    "dist",
    "fixtures",
}

#: Rule id -> one-line description, for ``--list-rules`` and SARIF.
RULE_DOC: dict[str, str] = {
    "RPR000": "malformed waiver comment (missing reason / misplaced)",
    "RPR001": "per-cell Python loop in an align/ kernel (keep kernels vectorised)",
    "RPR003": "mutation of lock-guarded shared state outside the lock (race)",
    "RPR010": "blocking call (time.sleep / unbounded Queue.get) in a service request-handling path",
    "RPR011": "wall-clock time.time() in an instrumented path (use time.perf_counter)",
    "RPR013": "service handler / lease-holding path transitively reaches a blocking call",
    "RPR017": "import boundary: repro.align inside the repro.index layer (index routes before alignment); repro.simulate anywhere else in the package (figure code)",
    "RPR020": "repro.align import inside the repro.annot layer (annotation renders cached results only)",
}


def active_rules() -> list[str]:
    """Ids of every rule the linter runs (sorted)."""
    return sorted(RULE_DOC)


def collect_files(paths: Iterable[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for candidate in path.rglob("*.py"):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    files.add(candidate)
        elif path.suffix == ".py":
            files.add(path)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
    return sorted(files)


def _per_file_findings(
    tree: ast.Module,
    source: str,
    path: str,
    waivers,
    timings: dict[str, float] | None = None,
) -> list[Diagnostic]:
    """Unsuppressed per-file findings for one parsed module."""
    findings: list[Diagnostic] = list(waivers.problems)
    for rule_id, rule in FILE_RULES:
        start = time.perf_counter()
        findings.extend(rule(tree, path))
        if timings is not None:
            timings[rule_id] = timings.get(rule_id, 0.0) + (
                time.perf_counter() - start
            )
    start = time.perf_counter()
    findings.extend(check_lock_discipline(tree, source, path))
    if timings is not None:
        timings["RPR003"] = timings.get("RPR003", 0.0) + (
            time.perf_counter() - start
        )
    unsuppressed = [d for d in findings if not waivers.is_waived(d.rule, d.line)]
    # A rule may fire twice on one statement via nested scopes; report once.
    unique: dict[tuple[str, str, int, str], Diagnostic] = {}
    for diag in unsuppressed:
        unique.setdefault((diag.rule, diag.path, diag.line, diag.message), diag)
    return sorted(unique.values(), key=lambda d: (d.path, d.line, d.rule))


def lint_file(path: str | Path) -> list[Diagnostic]:
    """All unsuppressed per-file findings for one file."""
    path = Path(path)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        return [
            Diagnostic(
                rule="RPR000", path=str(path), line=0, message=f"unreadable: {exc}"
            )
        ]
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            Diagnostic(
                rule="RPR000",
                path=str(path),
                line=exc.lineno or 0,
                message=f"syntax error: {exc.msg}",
            )
        ]
    waivers = parse_waivers(source, str(path))
    return _per_file_findings(tree, source, str(path), waivers)


@dataclass
class AnalysisResult:
    """Everything one driver run produced."""

    findings: list[Diagnostic] = field(default_factory=list)
    graph: ProgramGraph | None = None
    #: driver counters: files, modules analysed, graph sizes, timings.
    stats: dict = field(default_factory=dict)


def analyze_paths(paths: Iterable[str | Path]) -> AnalysisResult:
    """Per-file *and* whole-program findings across ``paths``."""
    total_start = time.perf_counter()
    files = collect_files(paths)
    timings: dict[str, float] = {}
    findings: list[Diagnostic] = []
    facts_by_path: dict[str, ModuleFacts] = {}
    n_analyzed = 0

    for file_path in files:
        path = str(file_path)
        try:
            source = file_path.read_text(encoding="utf-8", errors="replace")
        except OSError as exc:
            findings.append(
                Diagnostic(
                    rule="RPR000", path=path, line=0, message=f"unreadable: {exc}"
                )
            )
            continue
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            findings.append(
                Diagnostic(
                    rule="RPR000",
                    path=path,
                    line=exc.lineno or 0,
                    message=f"syntax error: {exc.msg}",
                )
            )
            continue
        n_analyzed += 1
        waivers = parse_waivers(source, path)
        file_findings = _per_file_findings(tree, source, path, waivers, timings)
        findings.extend(file_findings)
        start = time.perf_counter()
        facts = extract_module_facts(tree, source, path, waivers=waivers)
        timings["facts"] = timings.get("facts", 0.0) + (
            time.perf_counter() - start
        )
        facts_by_path[path] = facts

    # -- whole-program pass ------------------------------------------------
    start = time.perf_counter()
    graph = ProgramGraph(facts_by_path.values())
    timings["graph"] = time.perf_counter() - start
    start = time.perf_counter()
    interproc = rule_blocking_reachability(graph)
    timings["RPR013"] = time.perf_counter() - start
    unsuppressed: list[Diagnostic] = []
    seen: set[tuple[str, str, int, str]] = set()
    for diag in sorted(interproc, key=lambda d: (d.path, d.line, d.rule)):
        facts = facts_by_path.get(diag.path)
        if facts is not None and facts.is_waived(diag.rule, diag.line):
            continue
        key = (diag.rule, diag.path, diag.line, diag.message)
        if key not in seen:
            seen.add(key)
            unsuppressed.append(diag)
    findings.extend(unsuppressed)

    graph_stats = graph.stats()
    stats = {
        "files": len(files),
        "modules": graph_stats["modules"],
        "modules_analyzed": n_analyzed,
        "functions": graph_stats["functions"],
        "call_edges": graph_stats["call_edges"],
        "findings": len(findings),
        "rules_active": len(active_rules()),
        "rule_timings_ms": {
            k: round(v * 1000.0, 3) for k, v in sorted(timings.items())
        },
        "total_ms": round((time.perf_counter() - total_start) * 1000.0, 3),
    }
    return AnalysisResult(findings=findings, graph=graph, stats=stats)


def lint_paths(paths: Iterable[str | Path]) -> list[Diagnostic]:
    """Findings across every file reachable from ``paths``."""
    return analyze_paths(paths).findings


# ---------------------------------------------------------------------------
# --changed support
# ---------------------------------------------------------------------------


def _git_changed_paths() -> set[Path] | None:
    """Files touched per git (diff vs HEAD + untracked), resolved."""
    changed: set[Path] = set()
    for args in (
        ["git", "diff", "--name-only", "HEAD"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            proc = subprocess.run(
                args, capture_output=True, text=True, timeout=30, check=False
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        if proc.returncode != 0:
            return None
        for line in proc.stdout.splitlines():
            line = line.strip()
            if line:
                changed.add(Path(line).resolve())
    return changed


def _changed_scope(result: AnalysisResult) -> set[str] | None:
    """Paths in scope for ``--changed``: touched files + reverse deps."""
    changed = _git_changed_paths()
    if changed is None:
        return None
    graph = result.graph
    if graph is None:
        return set()
    touched_modules = [
        mf.module
        for mf in graph.modules.values()
        if Path(mf.path).resolve() in changed
    ]
    in_scope = graph.reverse_import_closure(touched_modules)
    return {
        mf.path for mf in graph.modules.values() if mf.module in in_scope
    }


# ---------------------------------------------------------------------------
# rendering and CLI
# ---------------------------------------------------------------------------


def _render(findings: Sequence[Diagnostic], fmt: str) -> str:
    if fmt == "json":
        return json.dumps([d.to_dict() for d in findings], indent=2)
    if fmt == "sarif":
        from .sarif import render_sarif

        return render_sarif(findings, RULE_DOC)
    return "\n".join(d.render() for d in findings)


def _print_graph_query(
    graph: ProgramGraph, query: str, symbol: str
) -> int:
    nodes = graph.find_nodes(symbol)
    if not nodes:
        print(f"repro lint: no function matches {symbol!r}", file=sys.stderr)
        return 2
    for node in nodes:
        mf, ff = graph.functions[node]
        print(f"{node}  ({mf.path}:{ff.line})")
        hits = graph.callers(node) if query == "callers" else graph.callees(node)
        for other, line in sorted(hits):
            print(f"  {'<-' if query == 'callers' else '->'} {other}  (line {line})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="Project-specific static analysis for the repro codebase "
        "(invariant-guarding lint rules; see ANALYSIS.md).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text", dest="fmt"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help="only report findings in git-changed files and their reverse "
        "import dependencies",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print driver timing/size counters as JSON instead of findings",
    )
    parser.add_argument(
        "--graph",
        nargs=2,
        metavar=("QUERY", "SYMBOL"),
        help="query the call graph: callers|callees <symbol>",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point (also ``python -m repro.analysis``)."""
    args = build_parser().parse_args(argv)
    if args.list_rules:
        for rule in active_rules():
            print(f"{rule}  {RULE_DOC[rule]}")
        return 0
    if args.graph is not None and args.graph[0] not in ("callers", "callees"):
        print(
            f"repro lint: --graph query must be callers|callees, "
            f"got {args.graph[0]!r}",
            file=sys.stderr,
        )
        return 2
    try:
        result = analyze_paths(args.paths)
    except FileNotFoundError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.graph is not None:
        assert result.graph is not None
        return _print_graph_query(result.graph, args.graph[0], args.graph[1])
    findings = result.findings
    if args.changed:
        scope = _changed_scope(result)
        if scope is None:
            print(
                "repro lint: --changed requires a git checkout; "
                "linting everything",
                file=sys.stderr,
            )
        else:
            findings = [d for d in findings if d.path in scope]
    if args.stats:
        stats = dict(result.stats, findings=len(findings))
        print(json.dumps(stats, indent=2))
        return 1 if findings else 0
    if findings or args.fmt == "sarif":
        print(_render(findings, args.fmt))
    if args.fmt == "text":
        print(
            f"repro lint: {len(findings)} finding(s) in "
            f"{result.stats['files']} file(s), "
            f"{len(active_rules())} rules active",
            file=sys.stderr,
        )
    return 1 if findings else 0
