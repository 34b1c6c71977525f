"""RPR003 — static lock-discipline race detection.

The shared-memory scheduler (§4.2) speculates on tasks concurrently:
worker threads mutate one task queue, one in-flight table and one
search state, all serialised by a single condition variable.  The
paper's exactness argument ("exactly the same top alignments") only
holds if *every* mutation of that shared state happens under the lock
— a single unlocked ``self._inflight[...] = ...`` re-introduces the
races the dominance test was designed to exclude, and no unit test
reliably catches it.

This module infers the lock discipline per class, lockset-style
(cf. Eraser / RacerD), and flags violations:

1. a class is *concurrent* if any of its methods stores a
   ``threading.Lock`` / ``RLock`` / ``Condition`` on ``self``;
2. an attribute is *guarded* if at least one method mutates it inside
   a ``with self.<lock>:`` block — the discipline is inferred from the
   code's own majority behaviour, no annotations needed;
3. every other mutation of a guarded attribute must then also be
   (a) under a ``with self.<lock>:`` block, or
   (b) inside ``__init__`` (no other thread can hold a reference yet),
   or (c) inside a method whose ``def`` line carries the marker
   ``# repro-lint: holds-lock`` — a documented caller-must-hold-lock
   contract;
4. calling a ``holds-lock`` method from an unlocked context is itself
   a violation (the contract must be discharged somewhere).

Mutations recognised: ``self.X = ...``, ``self.X += ...``,
``del self.X``, ``self.X[...] = ...``, ``del self.X[...]`` and calls
of known mutating methods ``self.X.append(...)`` etc.
"""

from __future__ import annotations

import ast

from .diagnostics import HOLDS_LOCK_MARK, Diagnostic

__all__ = ["check_lock_discipline", "MUTATING_METHODS"]

#: Lock factory callables recognised on the RHS of ``self.X = ...``.
_LOCK_FACTORIES = {"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"}

#: Method names treated as mutating their receiver.  Includes this
#: repo's own container mutators (TaskQueue and friends).
MUTATING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "insert",
        "remove",
        "pop",
        "popleft",
        "popitem",
        "clear",
        "update",
        "add",
        "discard",
        "setdefault",
        "sort",
        "reverse",
        "push",
        "put",
        "put_nowait",
        "pop_highest",
        "mark",
    }
)


def _self_attr(node: ast.expr) -> str | None:
    """``self.X`` -> ``"X"``; anything else -> None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _is_lock_factory(value: ast.expr) -> bool:
    """Whether an assigned value is ``threading.Lock()`` etc."""
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if isinstance(func, ast.Attribute):
        return func.attr in _LOCK_FACTORIES
    if isinstance(func, ast.Name):
        return func.id in _LOCK_FACTORIES
    return False


class _Mutation:
    __slots__ = ("attr", "line", "locked", "method")

    def __init__(self, attr: str, line: int, locked: bool, method: str) -> None:
        self.attr = attr
        self.line = line
        self.locked = locked
        self.method = method


class _MethodScanner(ast.NodeVisitor):
    """Collects mutations of ``self.*`` attributes and lock regions."""

    def __init__(self, lock_attrs: set[str], method: str) -> None:
        self.lock_attrs = lock_attrs
        self.method = method
        self.depth = 0  # nesting depth of `with self.<lock>:` blocks
        self.mutations: list[_Mutation] = []
        #: (line, callee) calls of self.<method>() and their lock state.
        self.self_calls: list[tuple[int, str, bool]] = []

    # -- lock regions ------------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        locked = any(
            _self_attr(item.context_expr) in self.lock_attrs
            for item in node.items
            if _self_attr(item.context_expr) is not None
        )
        if locked:
            self.depth += 1
        self.generic_visit(node)
        if locked:
            self.depth -= 1

    # Nested defs get their own scanner pass; don't double-count.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return

    # -- mutations ---------------------------------------------------------

    def _record(self, attr: str | None, line: int) -> None:
        if attr is not None:
            self.mutations.append(
                _Mutation(attr, line, self.depth > 0, self.method)
            )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_target(target, node.lineno)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_target(node.target, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_target(node.target, node.lineno)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_target(target, node.lineno)
        self.generic_visit(node)

    def _record_target(self, target: ast.expr, line: int) -> None:
        if isinstance(target, ast.Subscript):
            self._record(_self_attr(target.value), line)
        else:
            self._record(_self_attr(target), line)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            receiver_attr = _self_attr(func.value)
            if receiver_attr is not None and func.attr in MUTATING_METHODS:
                self._record(receiver_attr, node.lineno)
            if _self_attr(func) is not None and receiver_attr is None:
                # self.<method>(...) — a direct method call.
                self.self_calls.append((node.lineno, func.attr, self.depth > 0))
        self.generic_visit(node)


def _holds_lock_methods(klass: ast.ClassDef, source_lines: list[str]) -> set[str]:
    """Methods whose ``def`` line carries the holds-lock marker."""
    marked: set[str] = set()
    for node in klass.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            line = source_lines[node.lineno - 1]
            if HOLDS_LOCK_MARK in line:
                marked.add(node.name)
    return marked


def check_lock_discipline(
    tree: ast.Module, source: str, path: str
) -> list[Diagnostic]:
    """Run the RPR003 analysis over every class in ``tree``."""
    source_lines = source.splitlines()
    findings: list[Diagnostic] = []
    for klass in [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]:
        findings.extend(_check_class(klass, source_lines, path))
    return findings


def _check_class(
    klass: ast.ClassDef, source_lines: list[str], path: str
) -> list[Diagnostic]:
    methods = [
        n for n in klass.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    # 1. lock attributes.
    lock_attrs: set[str] = set()
    for method in methods:
        for node in ast.walk(method):
            if isinstance(node, ast.Assign) and _is_lock_factory(node.value):
                for target in node.targets:
                    attr = _self_attr(target)
                    if attr is not None:
                        lock_attrs.add(attr)
    if not lock_attrs:
        return []

    holds_lock = _holds_lock_methods(klass, source_lines)

    # 2. collect all mutations and self-calls per method.
    scanners: dict[str, _MethodScanner] = {}
    for method in methods:
        scanner = _MethodScanner(lock_attrs, method.name)
        for stmt in method.body:
            scanner.visit(stmt)
        scanners[method.name] = scanner

    guarded: set[str] = set()
    for scanner in scanners.values():
        for mutation in scanner.mutations:
            if mutation.locked and mutation.attr not in lock_attrs:
                guarded.add(mutation.attr)

    findings: list[Diagnostic] = []
    # 3. unlocked mutations of guarded attributes.
    for name, scanner in scanners.items():
        if name == "__init__" or name in holds_lock:
            continue
        for mutation in scanner.mutations:
            if mutation.attr in guarded and not mutation.locked:
                findings.append(
                    Diagnostic(
                        rule="RPR003",
                        path=path,
                        line=mutation.line,
                        message=f"{klass.name}.{name} mutates lock-guarded "
                        f"attribute self.{mutation.attr} outside a "
                        f"`with self.<lock>:` block (guarded elsewhere "
                        "under "
                        + " / ".join(sorted("self." + a for a in lock_attrs))
                        + "); take the lock, or mark the method "
                        "`# repro-lint: holds-lock`",
                    )
                )
        # 4. holds-lock callees invoked without the lock.
        for line, callee, locked in scanner.self_calls:
            if callee in holds_lock and not locked:
                findings.append(
                    Diagnostic(
                        rule="RPR003",
                        path=path,
                        line=line,
                        message=f"{klass.name}.{name} calls "
                        f"self.{callee}() — marked holds-lock — without "
                        "holding the lock",
                    )
                )
    return findings
