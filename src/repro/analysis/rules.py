"""Project-specific AST lint rules (``repro lint``).

Each rule guards one way the reproduction has been observed (or is
expected) to rot — see ``ANALYSIS.md`` for the paper section each rule
protects.  Rules are pure functions over one file's AST; lock discipline
(RPR003) needs the source text too and lives in
:mod:`repro.analysis.locks`.

Rule ids and one-line descriptions: ``RULE_DOC`` in :mod:`repro.analysis.linter`.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Callable

from .diagnostics import Diagnostic

__all__ = ["Rule", "FILE_RULES", "IMPORT_BOUNDARIES"]

#: Signature of a per-file rule: (tree, path) -> findings.
Rule = Callable[[ast.Module, str], list[Diagnostic]]

#: Element subscripts indexed by the inner loop variable that make a
#: nested ``for``-``range`` loop "per-cell work" (M[y][x], E[a][b], ...).
_MIN_PER_CELL_SUBSCRIPTS = 3


def _parts(path: str) -> set[str]:
    return set(Path(path).parts)


def _in_dir(path: str, *names: str) -> bool:
    parts = _parts(path)
    return any(name in parts for name in names)


def _is_test_file(path: str) -> bool:
    """Tests build tiny expected arrays; kernel-perf rules skip them."""
    name = Path(path).name
    return (
        "tests" in _parts(path)
        or name.startswith("test_")
        or name == "conftest.py"
    )


# ---------------------------------------------------------------------------
# RPR001 — per-cell Python loops in alignment kernels
# ---------------------------------------------------------------------------


def _element_subscripts_with(node: ast.AST, var: str) -> int:
    """Count element (non-slice) subscripts whose index mentions ``var``."""
    count = 0
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Subscript):
            continue
        index = sub.slice
        if isinstance(index, ast.Slice):
            continue
        if isinstance(index, ast.Tuple) and any(
            isinstance(elt, ast.Slice) for elt in index.elts
        ):
            continue
        if any(isinstance(n, ast.Name) and n.id == var for n in ast.walk(index)):
            count += 1
    return count


def _is_range_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "range"
    )


def rule_per_cell_loop(tree: ast.Module, path: str) -> list[Diagnostic]:
    """RPR001: nested Python ``for``-``range`` loops doing per-cell work.

    The paper's million-fold speedup starts from keeping the Equation 1
    recurrence out of the Python interpreter (row-vectorised or
    lane-batched); a nested loop that touches matrix cells one at a
    time re-introduces the "conventional instruction set" baseline.
    Intentional scalar references carry a waiver.
    """
    if not _in_dir(path, "align") or _is_test_file(path):
        return []
    findings: list[Diagnostic] = []

    def visit(node: ast.AST, for_depth: int) -> None:
        for child in ast.iter_child_nodes(node):
            depth = for_depth
            if isinstance(child, ast.For):
                if (
                    for_depth >= 1
                    and _is_range_call(child.iter)
                    and isinstance(child.target, ast.Name)
                    and _element_subscripts_with(child, child.target.id)
                    >= _MIN_PER_CELL_SUBSCRIPTS
                ):
                    findings.append(
                        Diagnostic(
                            rule="RPR001",
                            path=path,
                            line=child.lineno,
                            message="per-cell Python loop in an alignment "
                            "kernel; vectorise the inner dimension "
                            "(numpy row ops / lane batch) or waive with a "
                            "reason if this is a reference implementation",
                        )
                    )
                depth = for_depth + 1
            visit(child, depth)

    visit(tree, 0)
    return findings


# ---------------------------------------------------------------------------
# RPR010 — blocking calls in service request-handling paths
# ---------------------------------------------------------------------------

def _is_handler_function(node: ast.AST) -> bool:
    """BaseHTTPRequestHandler verb methods and ``handle*`` entry points."""
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
        node.name.startswith("do_") or node.name.startswith("handle")
    )


def _is_handler_class(node: ast.AST) -> bool:
    """A class whose bases name a request handler (``*Handler``)."""
    if not isinstance(node, ast.ClassDef):
        return False
    for base in node.bases:
        name = base.attr if isinstance(base, ast.Attribute) else (
            base.id if isinstance(base, ast.Name) else ""
        )
        if name.endswith("Handler"):
            return True
    return False


def _time_aliases(tree: ast.Module, attr: str) -> tuple[set[str], set[str]]:
    """(module aliases of ``time``, direct names bound to ``time.<attr>``)."""
    modules: set[str] = set()
    direct: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    modules.add(alias.asname or "time")
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name == attr:
                    direct.add(alias.asname or attr)
    return modules, direct


def _receiver_tail(node: ast.expr) -> str:
    """Last name component of a call receiver (``self.jobs_queue`` -> ``jobs_queue``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def rule_blocking_in_handler(tree: ast.Module, path: str) -> list[Diagnostic]:
    """RPR010: blocking calls inside ``repro.service`` request handlers.

    The HTTP server handles each request on a pool thread; a handler
    that parks in ``time.sleep`` or an unbounded ``Queue.get()`` ties
    up a thread indefinitely and turns slow clients into denial of
    service.  Intentional bounded waits carry a waiver:
    ``# repro-lint: allow[RPR010] reason``.
    """
    if not _in_dir(path, "service") or _is_test_file(path):
        return []
    modules, direct = _time_aliases(tree, "sleep")
    findings: list[Diagnostic] = []

    def check_scope(fn: ast.AST) -> None:
        for node in ast.walk(fn):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_sleep = (
                isinstance(func, ast.Attribute)
                and func.attr == "sleep"
                and isinstance(func.value, ast.Name)
                and func.value.id in modules
            ) or (isinstance(func, ast.Name) and func.id in direct)
            if is_sleep:
                findings.append(
                    Diagnostic(
                        rule="RPR010",
                        path=path,
                        line=node.lineno,
                        message="time.sleep in a request-handling path "
                        "blocks a server thread; poll with a deadline and "
                        "waive (`# repro-lint: allow[RPR010] reason`) if "
                        "the wait is intentionally bounded",
                    )
                )
                continue
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "get"
                and "queue" in _receiver_tail(func.value).lower()
                and not node.args
                and not any(
                    kw.arg in ("timeout", "block") for kw in node.keywords
                )
            ):
                findings.append(
                    Diagnostic(
                        rule="RPR010",
                        path=path,
                        line=node.lineno,
                        message="unbounded Queue.get() in a request-handling "
                        "path blocks a server thread forever; pass a timeout "
                        "or block=False",
                    )
                )

    def visit(node: ast.AST, in_handler_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_handler_function(child) or in_handler_class:
                    check_scope(child)
                    continue  # check_scope walked the whole body already
                visit(child, in_handler_class)
            elif isinstance(child, ast.ClassDef):
                visit(child, in_handler_class or _is_handler_class(child))
            else:
                visit(child, in_handler_class)

    visit(tree, False)
    return findings


# ---------------------------------------------------------------------------
# RPR011 — wall-clock time.time() in instrumented performance paths


#: Directories whose durations feed RunStats and the repro.obs
#: histograms.  ``service`` is deliberately absent: job records carry
#: genuine wall-clock epoch timestamps (created/started/finished).
_MONOTONIC_DIRS = ("align", "core", "parallel", "obs", "benchmarks")


def rule_wall_clock_in_hot_path(tree: ast.Module, path: str) -> list[Diagnostic]:
    """RPR011: ``time.time()`` where durations feed metrics.

    Every duration in the instrumented paths (the drivers, the engines,
    the bench harness, ``repro.obs`` itself) ends up in ``RunStats`` or
    a latency histogram.  The wall clock can step backwards under NTP
    and silently corrupt those numbers; ``time.perf_counter`` (or
    ``time.monotonic``) cannot.  A genuine need for an epoch timestamp
    in these paths carries a waiver:
    ``# repro-lint: allow[RPR011] reason``.
    """
    if not _in_dir(path, *_MONOTONIC_DIRS) or _is_test_file(path):
        return []
    modules, direct = _time_aliases(tree, "time")
    findings: list[Diagnostic] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        is_wall_clock = (
            isinstance(func, ast.Attribute)
            and func.attr == "time"
            and isinstance(func.value, ast.Name)
            and func.value.id in modules
        ) or (isinstance(func, ast.Name) and func.id in direct)
        if is_wall_clock:
            findings.append(
                Diagnostic(
                    rule="RPR011",
                    path=path,
                    line=node.lineno,
                    message="time.time() in an instrumented path: the wall "
                    "clock can step backwards and corrupt durations; use "
                    "time.perf_counter() (or waive with "
                    "`# repro-lint: allow[RPR011] reason` for a genuine "
                    "epoch timestamp)",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# RPR017 / RPR020 — layering: import boundaries between subpackages
# ---------------------------------------------------------------------------

#: ``(rule id, layer, banned, why)``: no module of the ``repro/<layer>/``
#: directory (``"*"``: of any ``repro`` subpackage but ``banned`` itself)
#: may import ``repro.<banned>``; ``why`` ends the finding's message.  A
#: deliberate exception carries ``# repro-lint: allow[<rule id>] reason``.
#: The index tier's routing must stay computable from the exchange
#: matrix and k-mer counts alone (an alignment leaking into it would
#: make the screen cost what it screens for); the annotation layer renders
#: cached results and must never be able to re-run, or drift from, the
#: alignment it describes; ``repro.simulate`` is the Figure 8 model.
IMPORT_BOUNDARIES: tuple[tuple[str, str, str, str], ...] = (
    ("RPR017", "index", "align",
     "the index tier routes work *before* any alignment runs and must depend "
     "only on sequences/scoring — move engine-dependent logic to repro.core"),
    ("RPR020", "annot", "align",
     "annotation renders cached results and must consume repro.core report "
     "models only — never the alignment kernels"),
    ("RPR017", "*", "simulate",
     "the cluster simulator is figure code (benchmarks/figures.py) and nothing "
     "the package runs may depend on it"),
)


def _inside_package(path: str, package: str = "repro") -> bool:
    """Whether ``path`` sits inside a package directory named ``package``."""
    p = Path(path).resolve()
    for parent in p.parents:
        if parent.name == package and (parent / "__init__.py").exists():
            return True
    return False


def _subpackage_imports(
    tree: ast.Module, path: str, name: str
) -> list[tuple[ast.AST, str]]:
    """Every import of ``repro.<name>`` in ``tree``, absolute or relative.

    A relative import counts when it climbs to the package root: two or
    more dots from a subpackage module, one from a module that sits in
    ``repro/`` itself.
    """
    root_level = 1 if Path(path).resolve().parent.name == "repro" else 2
    dotted = f"repro.{name}"
    hits: list[tuple[ast.AST, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == dotted or alias.name.startswith(dotted + "."):
                    hits.append((node, alias.name))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module == dotted or module.startswith(dotted + "."):
                    hits.append((node, module))
            elif node.level >= root_level:
                if module == name or module.startswith(name + "."):
                    hits.append((node, f"{'.' * node.level}{module}"))
                elif not module and any(a.name == name for a in node.names):
                    hits.append((node, f"{'.' * node.level} {name}"))
    return hits


def rule_import_boundaries(tree: ast.Module, path: str) -> list[Diagnostic]:
    """RPR017/RPR020: an import that crosses a row of :data:`IMPORT_BOUNDARIES`."""
    if _is_test_file(path):
        return []
    findings: list[Diagnostic] = []
    for rule, layer, banned, why in IMPORT_BOUNDARIES:
        if layer == "*":
            if not _inside_package(path) or _in_dir(path, banned):
                continue
            where = "the repro package"
        elif _in_dir(path, layer):
            where = f"the repro.{layer} layer"
        else:
            continue
        findings.extend(
            Diagnostic(
                rule=rule,
                path=path,
                line=node.lineno,
                message=f"import of {imported} inside {where}; {why} "
                f"(or waive with `# repro-lint: allow[{rule}] reason`)",
            )
            for node, imported in _subpackage_imports(tree, path, banned)
        )
    return findings


#: Per-file rules, in reporting order.  Lock discipline (RPR003) is
#: registered by the linter driver.
FILE_RULES: tuple[tuple[str, Rule], ...] = (
    ("RPR001", rule_per_cell_loop),
    ("RPR010", rule_blocking_in_handler),
    ("RPR011", rule_wall_clock_in_hot_path),
    ("RPR017", rule_import_boundaries),  # and RPR020: one table, two ids
)
