"""Whole-program analysis core: per-module facts and the program graph.

The per-file rules see one AST at a time, but a request handler or a
lease-holding path must not *transitively* reach a blocking call
either, and that property spans modules.

This module provides the two layers the interprocedural rule RPR013
(:mod:`repro.analysis.interproc`) stands on:

* :func:`extract_module_facts` — a single-pass, per-module fact
  extractor producing plain dataclasses (:class:`ModuleFacts` and
  friends);
* :class:`ProgramGraph` — resolves intra-package imports, builds a
  name-resolution call graph, and answers ``callers``/``callees``/
  ``reachable`` queries for ``repro lint --graph``.

Resolution is deliberately *under*-approximate: a call the resolver
cannot attribute to a package symbol produces no edge (and therefore no
finding) rather than a guess.  That keeps the interprocedural rule
quiet-by-default, matching the waiver discipline of the per-file rules.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from .diagnostics import Waivers, parse_waivers
from .locks import _self_attr
from .rules import _is_test_file, _time_aliases

__all__ = [
    "FunctionFacts",
    "ClassFacts",
    "ModuleFacts",
    "ProgramGraph",
    "extract_module_facts",
    "module_name_for",
]

#: Blocking-call sink kinds recorded in :attr:`FunctionFacts.blocking`.
SINK_SLEEP = "time.sleep"
SINK_QUEUE_GET = "unbounded Queue.get"
SINK_RECV = "unbounded socket recv/accept"

#: Socket methods that block forever without a timeout.
_BLOCKING_SOCKET_METHODS = frozenset({"recv", "recvfrom", "recv_into", "accept"})

#: Sink-level waivers honoured during extraction: a blocking call whose
#: line is waived for any of these rules is not a reachability sink.
_SINK_WAIVER_RULES = ("RPR010", "RPR013")

#: Module basename allowed to own raw blocking socket calls.
_TRANSPORT_BASENAME = "transport.py"


def module_name_for(path: str | Path) -> str:
    """Dotted module name for ``path`` by walking up ``__init__.py`` dirs.

    ``src/repro/cluster/node.py`` -> ``repro.cluster.node``; a file whose
    parent is not a package resolves to its bare stem.
    """
    p = Path(path).resolve()
    parts: list[str] = [] if p.name == "__init__.py" else [p.stem]
    parent = p.parent
    while (parent / "__init__.py").exists():
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts)) if parts else p.stem


# ---------------------------------------------------------------------------
# fact dataclasses
# ---------------------------------------------------------------------------


@dataclass
class FunctionFacts:
    """Per-function facts: calls and blocking sinks."""

    name: str  # module-local qualname: "fn" or "Class.method"
    line: int
    params: list[str] = field(default_factory=list)
    #: (dotted call expression, line) — e.g. ``("self._queue.insert", 120)``.
    calls: list[tuple[str, int]] = field(default_factory=list)
    #: local var -> dotted constructor expression (``x = Foo(...)``).
    local_types: dict[str, str] = field(default_factory=dict)
    #: (sink kind, line) blocking calls, sink-level waivers already applied.
    blocking: list[tuple[str, int]] = field(default_factory=list)


@dataclass
class ClassFacts:
    """Per-class facts: bases, methods, attribute types."""

    name: str
    bases: list[str] = field(default_factory=list)  # dotted base expressions
    methods: list[str] = field(default_factory=list)
    #: ``self.X = Ctor(...)`` -> attr -> dotted constructor expression.
    attr_types: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleFacts:
    """Everything the whole-program pass needs from one module."""

    module: str
    path: str
    is_test: bool = False
    #: local alias -> dotted target ("protocol" -> "repro.cluster.protocol",
    #: "run_scan_shard" -> "repro.cluster.execution.run_scan_shard").
    import_aliases: dict[str, str] = field(default_factory=dict)
    #: dotted names of every imported module (package-internal + external).
    imported_modules: list[str] = field(default_factory=list)
    functions: dict[str, FunctionFacts] = field(default_factory=dict)
    classes: dict[str, ClassFacts] = field(default_factory=dict)
    #: waiver state carried with the facts so the whole-program pass
    #: can suppress interprocedural findings.
    waiver_lines: dict[str, list[int]] = field(default_factory=dict)
    waiver_file_rules: list[str] = field(default_factory=list)

    # -- waiver helper ----------------------------------------------------

    def is_waived(self, rule: str, line: int) -> bool:
        if rule in self.waiver_file_rules:
            return True
        return line in self.waiver_lines.get(rule, ())


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` attribute/name chain as a dotted string, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _resolve_relative(module: str, level: int, target: str | None) -> str:
    """Absolute dotted module for a relative import in ``module``."""
    base = module.split(".")
    # ``from . import x`` inside pkg.sub drops `level` trailing components
    # (the module's own name counts as one).
    anchor = base[: len(base) - level] if level <= len(base) else []
    if target:
        anchor = anchor + target.split(".")
    return ".".join(anchor)


class _FunctionExtractor(ast.NodeVisitor):
    """Walks one function body (including nested defs/lambdas)."""

    def __init__(
        self,
        facts: FunctionFacts,
        sleep_modules: set[str],
        sleep_direct: set[str],
        is_transport: bool,
        waivers: Waivers,
    ) -> None:
        self.f = facts
        self.sleep_modules = sleep_modules
        self.sleep_direct = sleep_direct
        self.is_transport = is_transport
        self.waivers = waivers

    # -- local constructor types ------------------------------------------

    def visit_Assign(self, node: ast.Assign) -> None:
        if isinstance(node.value, ast.Call):
            ctor = _dotted(node.value.func)
            if ctor is not None and ctor.split(".")[-1][:1].isupper():
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.f.local_types[target.id] = ctor
        self.generic_visit(node)

    # -- calls and sinks ---------------------------------------------------

    def _sink_waived(self, line: int) -> bool:
        return any(self.waivers.is_waived(r, line) for r in _SINK_WAIVER_RULES)

    def visit_Call(self, node: ast.Call) -> None:
        expr = _dotted(node.func)
        if expr is not None:
            self.f.calls.append((expr, node.lineno))
        func = node.func
        sink: str | None = None
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "sleep"
            and isinstance(func.value, ast.Name)
            and func.value.id in self.sleep_modules
        ) or (isinstance(func, ast.Name) and func.id in self.sleep_direct):
            sink = SINK_SLEEP
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "get"
            and isinstance(func.value, (ast.Attribute, ast.Name))
            and "queue"
            in (
                func.value.attr
                if isinstance(func.value, ast.Attribute)
                else func.value.id
            ).lower()
            and not node.args
            and not any(kw.arg in ("timeout", "block") for kw in node.keywords)
        ):
            sink = SINK_QUEUE_GET
        elif (
            not self.is_transport
            and isinstance(func, ast.Attribute)
            and func.attr in _BLOCKING_SOCKET_METHODS
            and not any(kw.arg == "timeout" for kw in node.keywords)
        ):
            sink = SINK_RECV
        if sink is not None and not self._sink_waived(node.lineno):
            self.f.blocking.append((sink, node.lineno))
        self.generic_visit(node)


def extract_module_facts(
    tree: ast.Module,
    source: str,
    path: str | Path,
    module: str | None = None,
    waivers: Waivers | None = None,
) -> ModuleFacts:
    """Extract every whole-program fact from one parsed module."""
    path = str(path)
    if module is None:
        module = module_name_for(path)
    if waivers is None:
        waivers = parse_waivers(source, path)
    facts = ModuleFacts(module=module, path=path, is_test=_is_test_file(path))
    facts.waiver_lines = {
        rule: sorted(lines) for rule, lines in waivers.lines.items()
    }
    facts.waiver_file_rules = sorted(waivers.file_rules)

    # -- imports (module- and function-level) -----------------------------
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                facts.import_aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name
                )
                facts.imported_modules.append(alias.name)
        elif isinstance(node, ast.ImportFrom):
            target = (
                _resolve_relative(module, node.level, node.module)
                if node.level
                else (node.module or "")
            )
            if not target:
                continue
            facts.imported_modules.append(target)
            for alias in node.names:
                if alias.name == "*":
                    continue
                facts.import_aliases[alias.asname or alias.name] = (
                    f"{target}.{alias.name}"
                )
    facts.imported_modules = sorted(set(facts.imported_modules))
    sleep_modules, sleep_direct = _time_aliases(tree, "sleep")
    is_transport = Path(path).name == _TRANSPORT_BASENAME

    def scan_function(
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        qual: str,
    ) -> FunctionFacts:
        ff = FunctionFacts(
            name=qual,
            line=fn.lineno,
            params=[a.arg for a in fn.args.posonlyargs + fn.args.args],
        )
        extractor = _FunctionExtractor(
            ff, sleep_modules, sleep_direct, is_transport, waivers
        )
        for stmt in fn.body:
            extractor.visit(stmt)
        return ff

    # -- top-level functions ----------------------------------------------
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            facts.functions[node.name] = scan_function(node, node.name)

    # -- classes ----------------------------------------------------------
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        methods = [
            n
            for n in node.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        cf = ClassFacts(
            name=node.name,
            bases=[b for b in (_dotted(base) for base in node.bases) if b],
            methods=[m.name for m in methods],
        )
        for method in methods:
            for sub in ast.walk(method):
                if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call):
                    ctor = _dotted(sub.value.func)
                    if ctor and ctor.split(".")[-1][:1].isupper():
                        for target in sub.targets:
                            attr = _self_attr(target)
                            if attr is not None:
                                cf.attr_types.setdefault(attr, ctor)
            qual = f"{node.name}.{method.name}"
            facts.functions[qual] = scan_function(method, qual)
        facts.classes[node.name] = cf

    return facts


# ---------------------------------------------------------------------------
# the program graph
# ---------------------------------------------------------------------------


class ProgramGraph:
    """Call graph over a set of module facts.

    Node ids are ``"module:qualname"`` strings, e.g.
    ``"repro.cluster.node:NodeAgent._execute_lease"``.
    """

    def __init__(self, modules: Iterable[ModuleFacts]) -> None:
        self.modules: dict[str, ModuleFacts] = {m.module: m for m in modules}
        #: node id -> (module facts, function facts)
        self.functions: dict[str, tuple[ModuleFacts, FunctionFacts]] = {}
        for mf in self.modules.values():
            for qual, ff in mf.functions.items():
                self.functions[f"{mf.module}:{qual}"] = (mf, ff)
        #: node id -> [(callee id, call line)]
        self.call_edges: dict[str, list[tuple[str, int]]] = {}
        self._reverse: dict[str, list[tuple[str, int]]] = {}
        self._build_call_edges()

    # -- symbol resolution -------------------------------------------------

    def _class_facts(self, class_id: str) -> tuple[ModuleFacts, ClassFacts] | None:
        module, _, name = class_id.partition(":")
        mf = self.modules.get(module)
        if mf is None:
            return None
        cf = mf.classes.get(name)
        return (mf, cf) if cf is not None else None

    def resolve_class_expr(self, module: str, expr: str) -> str | None:
        """A dotted constructor/base expression -> ``"module:Class"``."""
        mf = self.modules.get(module)
        if mf is None:
            return None
        parts = expr.split(".")
        if len(parts) == 1:
            if parts[0] in mf.classes:
                return f"{module}:{parts[0]}"
            target = mf.import_aliases.get(parts[0])
            if target is not None:
                owner, _, name = target.rpartition(".")
                if owner in self.modules and name in self.modules[owner].classes:
                    return f"{owner}:{name}"
            return None
        if len(parts) == 2:
            target = mf.import_aliases.get(parts[0])
            if target in self.modules and parts[1] in self.modules[target].classes:
                return f"{target}:{parts[1]}"
        return None

    def _method_node(self, class_id: str, method: str) -> str | None:
        """Resolve ``method`` on ``class_id``, walking package base classes."""
        seen: set[str] = set()
        queue = [class_id]
        while queue:
            cid = queue.pop(0)
            if cid in seen:
                continue
            seen.add(cid)
            entry = self._class_facts(cid)
            if entry is None:
                continue
            mf, cf = entry
            if method in cf.methods:
                return f"{mf.module}:{cf.name}.{method}"
            for base in cf.bases:
                resolved = self.resolve_class_expr(mf.module, base)
                if resolved is not None:
                    queue.append(resolved)
        return None

    def _constructor_node(self, class_id: str) -> str | None:
        node = self._method_node(class_id, "__init__")
        return node if node is not None else None

    def resolve_call(
        self, mf: ModuleFacts, ff: FunctionFacts, expr: str
    ) -> str | None:
        """Resolve one recorded call expression to a node id (or None)."""
        parts = expr.split(".")
        cls_name = ff.name.split(".")[0] if "." in ff.name else None
        # self.method(...) / self.attr.method(...)
        if parts[0] == "self" and cls_name is not None:
            class_id = f"{mf.module}:{cls_name}"
            if len(parts) == 2:
                return self._method_node(class_id, parts[1])
            if len(parts) == 3:
                entry = self._class_facts(class_id)
                if entry is None:
                    return None
                attr_type = entry[1].attr_types.get(parts[1])
                if attr_type is None:
                    return None
                target_cls = self.resolve_class_expr(mf.module, attr_type)
                if target_cls is None:
                    return None
                return self._method_node(target_cls, parts[2])
            return None
        # var.method(...) where var is a locally-constructed instance.
        if len(parts) == 2 and parts[0] in ff.local_types:
            target_cls = self.resolve_class_expr(mf.module, ff.local_types[parts[0]])
            if target_cls is not None:
                return self._method_node(target_cls, parts[1])
        # Plain name: local function, imported symbol, or constructor.
        if len(parts) == 1:
            name = parts[0]
            if name in mf.functions and "." not in name:
                return f"{mf.module}:{name}"
            if name in mf.classes:
                return self._constructor_node(f"{mf.module}:{name}")
            target = mf.import_aliases.get(name)
            if target is not None:
                owner, _, sym = target.rpartition(".")
                if owner in self.modules:
                    other = self.modules[owner]
                    if sym in other.functions:
                        return f"{owner}:{sym}"
                    if sym in other.classes:
                        return self._constructor_node(f"{owner}:{sym}")
            return None
        # mod.symbol(...) through a module alias.
        if len(parts) == 2:
            target = mf.import_aliases.get(parts[0])
            if target in self.modules:
                other = self.modules[target]
                if parts[1] in other.functions:
                    return f"{target}:{parts[1]}"
                if parts[1] in other.classes:
                    return self._constructor_node(f"{target}:{parts[1]}")
        return None

    # -- graph construction ------------------------------------------------

    def _build_call_edges(self) -> None:
        for node_id, (mf, ff) in self.functions.items():
            edges: list[tuple[str, int]] = []
            seen: set[tuple[str, int]] = set()
            for expr, line in ff.calls:
                callee = self.resolve_call(mf, ff, expr)
                if callee is not None and (callee, line) not in seen:
                    seen.add((callee, line))
                    edges.append((callee, line))
            self.call_edges[node_id] = edges
            for callee, line in edges:
                self._reverse.setdefault(callee, []).append((node_id, line))

    # -- queries -----------------------------------------------------------

    def callees(self, node_id: str) -> list[tuple[str, int]]:
        return list(self.call_edges.get(node_id, ()))

    def callers(self, node_id: str) -> list[tuple[str, int]]:
        return list(self._reverse.get(node_id, ()))

    def reachable(self, start: str) -> dict[str, tuple[str, int]]:
        """BFS from ``start``; maps each reached node to (parent, line)."""
        parents: dict[str, tuple[str, int]] = {}
        queue = deque([start])
        seen = {start}
        while queue:
            cur = queue.popleft()
            for callee, line in self.call_edges.get(cur, ()):
                if callee not in seen:
                    seen.add(callee)
                    parents[callee] = (cur, line)
                    queue.append(callee)
        return parents

    def path_to(
        self, start: str, target: str, parents: dict[str, tuple[str, int]]
    ) -> list[str]:
        """Call chain ``start -> ... -> target`` from a BFS parent map."""
        chain = [target]
        cur = target
        while cur != start:
            parent = parents.get(cur)
            if parent is None:
                break
            cur = parent[0]
            chain.append(cur)
        return list(reversed(chain))

    def find_nodes(self, symbol: str) -> list[str]:
        """Node ids whose qualname matches ``symbol`` (exact or suffix)."""
        if symbol in self.functions:
            return [symbol]
        hits = [
            node_id
            for node_id in self.functions
            if node_id.endswith(f":{symbol}") or node_id.endswith(f".{symbol}")
        ]
        return sorted(hits)

    def _imported_package_modules(self, mf: ModuleFacts) -> set[str]:
        """Package modules ``mf`` imports, via module or symbol imports."""
        targets: set[str] = set()
        for imported in list(mf.imported_modules) + list(
            mf.import_aliases.values()
        ):
            if imported in self.modules and imported != mf.module:
                targets.add(imported)
            else:
                owner = imported.rpartition(".")[0]
                if owner in self.modules and owner != mf.module:
                    targets.add(owner)
        return targets

    def reverse_import_closure(self, roots: Iterable[str]) -> set[str]:
        """Package modules that (transitively) import any of ``roots``."""
        importers: dict[str, set[str]] = {m: set() for m in self.modules}
        for mf in self.modules.values():
            for target in self._imported_package_modules(mf):
                importers[target].add(mf.module)
        seen = {m for m in roots if m in self.modules}
        queue = deque(seen)
        while queue:
            cur = queue.popleft()
            for dependent in importers.get(cur, ()):
                if dependent not in seen:
                    seen.add(dependent)
                    queue.append(dependent)
        return seen

    # -- summary -----------------------------------------------------------

    def stats(self) -> dict[str, int]:
        return {
            "modules": len(self.modules),
            "functions": len(self.functions),
            "call_edges": sum(len(v) for v in self.call_edges.values()),
        }

    def to_dict(self) -> dict[str, Any]:
        """JSON summary used by the golden-graph fixture tests."""
        return {
            "call_edges": {
                node: sorted({callee for callee, _ in edges})
                for node, edges in sorted(self.call_edges.items())
                if edges
            },
        }
