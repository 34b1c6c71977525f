"""Project-specific AST lint rules (``repro lint``).

Each rule guards one way the reproduction has been observed (or is
expected) to rot — see ``ANALYSIS.md`` for the paper section each rule
protects.  Rules are pure functions over one file's AST; the two rules
that need more context live in their own modules (lock discipline in
:mod:`repro.analysis.locks`, export consistency in
:mod:`repro.analysis.exports`).

Rule ids and one-line descriptions: ``RULE_DOC`` in :mod:`repro.analysis.linter`.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Callable, Iterator

from .diagnostics import Diagnostic

__all__ = ["Rule", "FILE_RULES", "IMPORT_BOUNDARIES"]

#: Signature of a per-file rule: (tree, path) -> findings.
Rule = Callable[[ast.Module, str], list[Diagnostic]]

#: numpy array constructors whose dtype should always be spelled out in
#: kernel/matrix code (implicit float64/int mixing silently changes the
#: engines' value domain — the paper computed in 16-bit integers).
_NUMPY_CONSTRUCTORS = {"zeros", "ones", "empty", "full"}

#: Legacy global-state numpy RNG entry points (non-reproducible across
#: call sites; benchmarks must thread an explicit seeded Generator).
_NUMPY_GLOBAL_RNG = {
    "random",
    "rand",
    "randn",
    "randint",
    "choice",
    "shuffle",
    "permutation",
    "uniform",
    "normal",
    "poisson",
    "exponential",
}

#: stdlib ``random`` module functions that draw from the global RNG.
_STDLIB_RNG = {
    "random",
    "randint",
    "randrange",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "uniform",
    "gauss",
    "betavariate",
    "expovariate",
}

#: list methods whose presence with ``insert(0, ...)`` semantics makes a
#: hot loop quadratic.
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


def _numpy_aliases(tree: ast.Module) -> set[str]:
    """Module aliases bound to numpy (``np``, ``numpy``, ...)."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    aliases.add(alias.asname or "numpy")
    return aliases


def _constructor_names(tree: ast.Module) -> set[str]:
    """Names bound by ``from numpy import zeros, ...``."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "numpy":
            for alias in node.names:
                if alias.name in _NUMPY_CONSTRUCTORS:
                    names.add(alias.asname or alias.name)
    return names


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
# RPR002 — implicit dtype in matrix construction
# ---------------------------------------------------------------------------


def rule_implicit_dtype(tree: ast.Module, path: str) -> list[Diagnostic]:
    """RPR002: ``np.zeros``/``ones``/``empty``/``full`` without ``dtype=``.

    Mixing implicit float64 into the lane engine's int16/int32 work
    rows silently defeats the exact width choice (§4.1's 16-bit
    overflow discussion), so matrix constructors in kernel and core
    code must pin their dtype.
    """
    if not _in_dir(path, "align", "core") or _is_test_file(path):
        return []
    np_aliases = _numpy_aliases(tree)
    direct = _constructor_names(tree)
    findings: list[Diagnostic] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        hit = False
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _NUMPY_CONSTRUCTORS
            and isinstance(func.value, ast.Name)
            and func.value.id in np_aliases
        ):
            hit = True
        elif isinstance(func, ast.Name) and func.id in direct:
            hit = True
        if hit and not any(kw.arg == "dtype" for kw in node.keywords):
            name = func.attr if isinstance(func, ast.Attribute) else func.id
            findings.append(
                Diagnostic(
                    rule="RPR002",
                    path=path,
                    line=node.lineno,
                    message=f"np.{name}(...) without an explicit dtype= in "
                    "matrix construction; implicit dtypes mix float64 into "
                    "integer lane kernels",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# RPR004 — unseeded randomness
# ---------------------------------------------------------------------------


def rule_unseeded_random(tree: ast.Module, path: str) -> list[Diagnostic]:
    """RPR004: randomness without an explicit seed in benchmark/simulator code.

    Every benchmark table and simulator trace in this repo is a
    reproduction artifact; a run that cannot be replayed bit-for-bit
    cannot be compared against the paper's Tables 1-2 / Figure 8.
    """
    if not _in_dir(path, "benchmarks", "simulate"):
        return []
    np_aliases = _numpy_aliases(tree)
    random_aliases: set[str] = set()
    seeds_global = False
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random":
                    random_aliases.add(alias.asname or "random")
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "seed"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in random_aliases
        ):
            seeds_global = True

    findings: list[Diagnostic] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        # np.random.<legacy>(...) — global-state numpy RNG.
        if (
            isinstance(func.value, ast.Attribute)
            and func.value.attr == "random"
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id in np_aliases
            and func.attr in _NUMPY_GLOBAL_RNG
        ):
            findings.append(
                Diagnostic(
                    rule="RPR004",
                    path=path,
                    line=node.lineno,
                    message=f"np.random.{func.attr}(...) uses the global "
                    "numpy RNG; thread an explicit "
                    "np.random.default_rng(seed) instead",
                )
            )
        # np.random.default_rng() with no seed.
        elif (
            func.attr == "default_rng"
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "random"
            and not node.args
            and not node.keywords
        ):
            findings.append(
                Diagnostic(
                    rule="RPR004",
                    path=path,
                    line=node.lineno,
                    message="default_rng() without a seed is not "
                    "reproducible; pass an explicit seed",
                )
            )
        # stdlib random.<fn>() on the (unseeded) global RNG.
        elif (
            isinstance(func.value, ast.Name)
            and func.value.id in random_aliases
            and func.attr in _STDLIB_RNG
            and not seeds_global
        ):
            findings.append(
                Diagnostic(
                    rule="RPR004",
                    path=path,
                    line=node.lineno,
                    message=f"random.{func.attr}() draws from the unseeded "
                    "global RNG; seed it or use random.Random(seed)",
                )
            )
        # random.Random() with no seed.
        elif (
            func.attr == "Random"
            and isinstance(func.value, ast.Name)
            and func.value.id in random_aliases
            and not node.args
            and not node.keywords
        ):
            findings.append(
                Diagnostic(
                    rule="RPR004",
                    path=path,
                    line=node.lineno,
                    message="random.Random() without a seed is not "
                    "reproducible; pass an explicit seed",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# RPR006 — bare except
# ---------------------------------------------------------------------------


def rule_bare_except(tree: ast.Module, path: str) -> list[Diagnostic]:
    """RPR006: ``except:`` with no exception type.

    A bare except swallows KeyboardInterrupt/SystemExit and — worse
    here — the invariant-checker's violations, turning a broken
    upper-bound into silently wrong output.
    """
    findings: list[Diagnostic] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            findings.append(
                Diagnostic(
                    rule="RPR006",
                    path=path,
                    line=node.lineno,
                    message="bare `except:` swallows SystemExit and "
                    "invariant violations; catch a concrete exception type",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# RPR007 — PYTHONPATH-unsafe self-imports
# ---------------------------------------------------------------------------


def _inside_package(path: str, package: str = "repro") -> bool:
    """Whether ``path`` sits inside a package directory named ``package``."""
    p = Path(path).resolve()
    for parent in p.parents:
        if parent.name == package and (parent / "__init__.py").exists():
            return True
    return False


def rule_absolute_self_import(tree: ast.Module, path: str) -> list[Diagnostic]:
    """RPR007: absolute ``import repro...`` inside the package itself.

    Modules inside ``src/repro`` must use relative imports — absolute
    self-imports only resolve when ``src`` happens to be on
    ``PYTHONPATH``, and they can double-import the package under two
    names (breaking engine-registry and isinstance identity).
    """
    if not _inside_package(path):
        return []
    findings: list[Diagnostic] = []
    for node in ast.walk(tree):
        offending = None
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    offending = alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "repro" or node.module.startswith("repro."):
                offending = node.module
        if offending is not None:
            findings.append(
                Diagnostic(
                    rule="RPR007",
                    path=path,
                    line=node.lineno,
                    message=f"absolute self-import of {offending!r} inside "
                    "the package; use a relative import so the module is "
                    "PYTHONPATH-layout independent",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# RPR008 — accidentally-quadratic list operations in loops
# ---------------------------------------------------------------------------


def _walk_scope(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested function/class scopes."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue  # a nested scope: its names do not alias ours
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _list_valued_names(body: list[ast.stmt]) -> set[str]:
    """Names assigned a list display / ``list(...)`` call in this scope."""
    names: set[str] = set()
    for node in _walk_scope(body):
        if isinstance(node, ast.Assign) and isinstance(
            node.value, (ast.List, ast.ListComp)
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id == "list"
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
    return names


def _loops(body: list[ast.stmt]) -> Iterator[ast.AST]:
    for node in _walk_scope(body):
        if isinstance(node, (ast.For, ast.While)):
            yield node


def rule_quadratic_list_op(tree: ast.Module, path: str) -> list[Diagnostic]:
    """RPR008: ``list.insert(0, ...)`` and ``in``-on-list inside loops.

    The best-first loop runs O(n) iterations per acceptance; an O(n)
    list operation inside it silently turns the §3 bookkeeping
    quadratic.  ``collections.deque`` / ``set`` are the drop-ins.
    """
    findings: list[Diagnostic] = []
    # insert(0, ...) anywhere — there is no good reason for it.
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "insert"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == 0
        ):
            findings.append(
                Diagnostic(
                    rule="RPR008",
                    path=path,
                    line=node.lineno,
                    message="list.insert(0, ...) is O(n); use "
                    "collections.deque.appendleft or append+reverse",
                )
            )
    # `x in somelist` inside a loop, where somelist is a local list.
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
            continue
        body = scope.body
        list_names = _list_valued_names(body)
        if not list_names:
            continue
        for loop in _loops(body):
            for node in ast.walk(loop):
                if not isinstance(node, ast.Compare):
                    continue
                for op, comparator in zip(node.ops, node.comparators):
                    if (
                        isinstance(op, (ast.In, ast.NotIn))
                        and isinstance(comparator, ast.Name)
                        and comparator.id in list_names
                    ):
                        findings.append(
                            Diagnostic(
                                rule="RPR008",
                                path=path,
                                line=node.lineno,
                                message=f"membership test against list "
                                f"{comparator.id!r} inside a loop is O(n) "
                                "per probe; use a set",
                            )
                        )
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
    service.  Intentional bounded waits (e.g. the event-stream tail
    poll, which re-checks a deadline every iteration) carry a waiver:
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
# RPR012 — socket discipline in the cluster package
# ---------------------------------------------------------------------------

#: The one module allowed to touch raw sockets (it wraps them in
#: timeout-carrying Channel/Listener objects).
_TRANSPORT_MODULE = "transport.py"

#: Socket methods that block forever unless a timeout bounds them.
_BLOCKING_SOCKET_METHODS = frozenset({"recv", "recvfrom", "recv_into", "accept"})


def _socket_aliases(tree: ast.Module) -> set[str]:
    """Module aliases bound to the stdlib ``socket`` module."""
    aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "socket":
                    aliases.add(alias.asname or "socket")
    return aliases


def rule_socket_discipline(tree: ast.Module, path: str) -> list[Diagnostic]:
    """RPR012: raw sockets / unbounded blocking calls outside the transport.

    A distributed run that hangs silently is worse than one that fails
    loudly: a node blocked forever in ``recv`` holds a lease until the
    deadline reaper steals it back, hiding the real fault.  All raw
    socket handling in ``repro.cluster`` therefore lives in
    ``transport.py``, whose Channel/Listener/connect wrappers carry
    explicit timeouts; every other cluster module must (a) never
    construct sockets directly and (b) pass ``timeout=`` to each
    ``recv``/``accept`` call.  Intentional exceptions carry a waiver:
    ``# repro-lint: allow[RPR012] reason``.
    """
    if not _in_dir(path, "cluster") or _is_test_file(path):
        return []
    if Path(path).name == _TRANSPORT_MODULE:
        return []
    socket_aliases = _socket_aliases(tree)
    findings: list[Diagnostic] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if (
            isinstance(func.value, ast.Name)
            and func.value.id in socket_aliases
            and func.attr in ("socket", "create_connection", "create_server")
        ):
            findings.append(
                Diagnostic(
                    rule="RPR012",
                    path=path,
                    line=node.lineno,
                    message=f"socket.{func.attr}(...) outside the transport "
                    "layer; construct connections through "
                    "repro.cluster.transport (Channel/Listener/connect), "
                    "whose sockets carry explicit timeouts",
                )
            )
        elif func.attr in _BLOCKING_SOCKET_METHODS and not any(
            kw.arg == "timeout" for kw in node.keywords
        ):
            findings.append(
                Diagnostic(
                    rule="RPR012",
                    path=path,
                    line=node.lineno,
                    message=f".{func.attr}(...) without an explicit timeout= "
                    "outside the transport layer can hang a node forever; "
                    "pass timeout= (or waive with "
                    "`# repro-lint: allow[RPR012] reason`)",
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
#: The index tier's seeded bounds must stay provable from the exchange
#: matrix alone (an alignment leaking into routing would make "provably
#: >= the true top score" a heuristic); the annotation layer renders
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


# ---------------------------------------------------------------------------
# RPR018 — admission discipline: service code must not write the queue
# ---------------------------------------------------------------------------

#: Attribute receivers that name the spool queue (``self.queue``,
#: ``service.queue``, a bare ``queue`` variable, ...).
_QUEUE_NAMES = {"queue", "spool", "spool_queue"}


def rule_direct_queue_write(tree: ast.Module, path: str) -> list[Diagnostic]:
    """RPR018: direct spool-queue writes inside ``repro.service``.

    Every job must enter the spool through the gateway — tenant
    resolution, quotas, idempotency and the fair-share lanes all live
    at admission, so a ``queue.submit(...)`` anywhere else in the
    service package silently bypasses multi-tenancy: the job skips
    quota accounting, takes no lane slot, and dodges the dispatch
    window that makes deficit-round-robin real.  ``queue.py`` itself
    (the implementation) and tests are exempt; a deliberate exception
    elsewhere carries a waiver: ``# repro-lint: allow[RPR018] reason``.
    """
    if not _in_dir(path, "service") or _is_test_file(path):
        return []
    if Path(path).name == "queue.py":
        return []
    findings: list[Diagnostic] = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "submit"
        ):
            continue
        receiver = node.func.value
        name = None
        if isinstance(receiver, ast.Attribute):
            name = receiver.attr
        elif isinstance(receiver, ast.Name):
            name = receiver.id
        if name in _QUEUE_NAMES:
            findings.append(
                Diagnostic(
                    rule="RPR018",
                    path=path,
                    line=node.lineno,
                    message=f"direct spool-queue write ({name}.submit) in "
                    "repro.service bypasses gateway admission — quotas, "
                    "idempotency and fair-share lanes are all enforced "
                    "there; route the job through Gateway.submit (or waive "
                    "with `# repro-lint: allow[RPR018] reason`)",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# RPR019 — prune discipline: early exits in align/ must consult the gate
# ---------------------------------------------------------------------------

#: Identifier fragments that mark a score-threshold comparison.
_THRESHOLD_WORDS = ("threshold", "min_score", "cutoff", "floor")

#: Identifier fragments that mark a PruneContext/PruneGate consultation.
_GATE_WORDS = ("gate", "prune")

#: Ordering operators — identity/equality tests are not threshold checks.
_ORDERING_OPS = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)


def _identifier_fragments(node: ast.AST) -> Iterator[str]:
    """Every Name id and Attribute attr under ``node``, lowercased."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id.lower()
        elif isinstance(sub, ast.Attribute):
            yield sub.attr.lower()


def _mentions(node: ast.AST, words: tuple[str, ...]) -> bool:
    return any(
        word in fragment
        for fragment in _identifier_fragments(node)
        for word in words
    )


def rule_ad_hoc_prune_branch(tree: ast.Module, path: str) -> list[Diagnostic]:
    """RPR019: threshold early-exits in ``align/`` outside the PruneGate.

    Every skipped cell in an alignment kernel must be *provably*
    irrelevant, and the proofs all live in one place —
    :mod:`repro.align.pruning`'s bound tables, threaded into engines as
    a ``PruneGate``.  An ad-hoc ``if score < min_score: return``
    sprinkled into a kernel has no such proof: it silently changes
    accepted tops, and the invariant checker cannot audit a bound that
    was never recorded.  Early-terminate branches that compare against
    threshold-like values (``threshold``/``min_score``/``cutoff``/
    ``floor``) must therefore consult the gate — reference a
    ``gate``/``prune`` name in the condition or the branch body — so
    the skip is recorded and verifiable.  A deliberate exception
    carries a waiver: ``# repro-lint: allow[RPR019] reason``.
    """
    if not _in_dir(path, "align") or _is_test_file(path):
        return []
    if Path(path).name == "pruning.py":
        return []  # the gate implementation is the one allowed home
    findings: list[Diagnostic] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        exits = any(
            isinstance(sub, (ast.Break, ast.Continue, ast.Return))
            for stmt in node.body
            for sub in ast.walk(stmt)
        )
        if not exits:
            continue
        threshold_compare = any(
            isinstance(sub, ast.Compare)
            and any(isinstance(op, _ORDERING_OPS) for op in sub.ops)
            and _mentions(sub, _THRESHOLD_WORDS)
            for sub in ast.walk(node.test)
        )
        if not threshold_compare:
            continue
        if _mentions(node.test, _GATE_WORDS) or any(
            _mentions(stmt, _GATE_WORDS) for stmt in node.body
        ):
            continue
        findings.append(
            Diagnostic(
                rule="RPR019",
                path=path,
                line=node.lineno,
                message="early-terminate branch compares against a "
                "threshold without consulting a PruneContext bound; "
                "route the skip through a PruneGate "
                "(row_cutoffs/lane_cutoffs) so it is recorded and "
                "provable, or waive with "
                "`# repro-lint: allow[RPR019] reason`",
            )
        )
    return findings


#: Per-file rules, in reporting order.  Lock discipline (RPR003) and
#: export consistency (RPR005) are registered by the linter driver.
FILE_RULES: tuple[tuple[str, Rule], ...] = (
    ("RPR001", rule_per_cell_loop),
    ("RPR002", rule_implicit_dtype),
    ("RPR004", rule_unseeded_random),
    ("RPR006", rule_bare_except),
    ("RPR007", rule_absolute_self_import),
    ("RPR008", rule_quadratic_list_op),
    ("RPR010", rule_blocking_in_handler),
    ("RPR011", rule_wall_clock_in_hot_path),
    ("RPR012", rule_socket_discipline),
    ("RPR017", rule_import_boundaries),  # and RPR020: one table, two ids
    ("RPR018", rule_direct_queue_write),
    ("RPR019", rule_ad_hoc_prune_branch),
)
