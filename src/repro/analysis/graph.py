"""Whole-program analysis core: per-module facts and the program graph.

The per-file rules (RPR001..RPR012) see one AST at a time; the
properties that actually carry the paper's "exactly the same top
alignments" guarantee span modules and processes — a lease frame built
in the coordinator must be consumed with a matching ``kind`` arm in the
node agent, a request handler must not *transitively* reach a blocking
call, two condition locks must never be acquired in opposite orders.

This module provides the two layers those interprocedural rules
(:mod:`repro.analysis.interproc`) stand on:

* :func:`extract_module_facts` — a single-pass, per-module fact
  extractor producing plain dataclasses (:class:`ModuleFacts` and
  friends);
* :class:`ProgramGraph` — resolves intra-package imports (including
  the ``__all__`` re-export surface RPR005 models), builds a
  name-resolution call graph plus a per-class lock-acquisition graph,
  and answers ``callers``/``callees``/``reachable`` queries for
  ``repro lint --graph``.

Resolution is deliberately *under*-approximate: a call the resolver
cannot attribute to a package symbol produces no edge (and therefore no
finding) rather than a guess.  That keeps the interprocedural rules
quiet-by-default, matching the waiver discipline of the per-file rules.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from .diagnostics import Waivers, parse_waivers
from .locks import _is_lock_factory, _self_attr
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

#: Socket methods that block forever without a timeout (mirrors RPR012).
_BLOCKING_SOCKET_METHODS = frozenset({"recv", "recvfrom", "recv_into", "accept"})

#: Sink-level waivers honoured during extraction: a blocking call whose
#: line is waived for any of these rules is not a reachability sink.
_SINK_WAIVER_RULES = ("RPR010", "RPR012", "RPR013")

#: Module basename allowed to own raw blocking socket calls.
_TRANSPORT_BASENAME = "transport.py"

#: Modules whose presence in a module's imports marks it as part of the
#: message-passing domain for RPR015 (suffix match on the dotted name).
_MSG_SUBSTRATE_SUFFIXES = (".msgpass", ".transport", ".protocol")

#: Builtin exception names recognised when classifying exception classes.
_BUILTIN_EXCEPTIONS = frozenset(
    {
        "BaseException",
        "Exception",
        "ArithmeticError",
        "AssertionError",
        "AttributeError",
        "BufferError",
        "ConnectionError",
        "EOFError",
        "ImportError",
        "IndexError",
        "KeyError",
        "LookupError",
        "MemoryError",
        "NameError",
        "NotImplementedError",
        "OSError",
        "OverflowError",
        "RuntimeError",
        "StopIteration",
        "SystemError",
        "TimeoutError",
        "TypeError",
        "ValueError",
    }
)


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
    """Per-function facts: calls, sinks, lock events."""

    name: str  # module-local qualname: "fn" or "Class.method"
    line: int
    end_line: int
    params: list[str] = field(default_factory=list)
    #: (dotted call expression, line) — e.g. ``("self._queue.insert", 120)``.
    calls: list[tuple[str, int]] = field(default_factory=list)
    #: local var -> dotted constructor expression (``x = Foo(...)``).
    local_types: dict[str, str] = field(default_factory=dict)
    #: (sink kind, line) blocking calls, sink-level waivers already applied.
    blocking: list[tuple[str, int]] = field(default_factory=list)
    #: (lock attr, line) every ``with self.<lock>:`` entry.
    lock_acquires: list[tuple[str, int]] = field(default_factory=list)
    #: (held attr, acquired attr, line) nested acquisitions.
    lock_pairs: list[tuple[str, str, int]] = field(default_factory=list)
    #: (held attr, call expression, line) calls made while holding a lock.
    calls_under_lock: list[tuple[str, str, int]] = field(default_factory=list)


@dataclass
class ClassFacts:
    """Per-class facts: bases, attribute types, locks, exception shape."""

    name: str
    line: int
    bases: list[str] = field(default_factory=list)  # dotted base expressions
    methods: list[str] = field(default_factory=list)
    #: ``self.X = Ctor(...)`` -> attr -> dotted constructor expression.
    attr_types: dict[str, str] = field(default_factory=dict)
    lock_attrs: list[str] = field(default_factory=list)
    is_exception: bool = False
    #: required ``__init__`` args beyond self; -1 when no custom __init__.
    init_required: int = -1
    has_reduce: bool = False


@dataclass
class ModuleFacts:
    """Everything the interprocedural rules need from one module."""

    module: str
    path: str
    is_test: bool = False
    msg_domain: bool = False
    #: local alias -> dotted target ("protocol" -> "repro.cluster.protocol",
    #: "run_scan_shard" -> "repro.cluster.execution.run_scan_shard").
    import_aliases: dict[str, str] = field(default_factory=dict)
    #: dotted names of every imported module (package-internal + external).
    imported_modules: list[str] = field(default_factory=list)
    #: module-level constant bindings (str/int/float/bool values only).
    constants: dict[str, Any] = field(default_factory=dict)
    functions: dict[str, FunctionFacts] = field(default_factory=dict)
    classes: dict[str, ClassFacts] = field(default_factory=dict)
    #: (exception dotted expr, function qualname, line).
    raises: list[tuple[str, str, int]] = field(default_factory=list)
    #: (caught type exprs, handler re-raises, function qualname, line).
    catches: list[tuple[list[str], bool, str, int]] = field(default_factory=list)
    #: message producers: {"ref"/"value", "keys", "func", "line"}.
    dict_kinds: list[dict[str, Any]] = field(default_factory=list)
    #: message consumers: {"ref"/"value", "func", "line"}.
    kind_compares: list[dict[str, Any]] = field(default_factory=list)
    #: dispatch arms: {"ref"/"value", "var", "fields": [[name, has_default,
    #: line], ...], "line"}.
    kind_arms: list[dict[str, Any]] = field(default_factory=list)
    #: tagged sends through a Communicator: {"ref"/"value", "func", "line"}.
    tag_sends: list[dict[str, Any]] = field(default_factory=list)
    #: tag consumers (recv(tag=..) / ``.tag ==`` compares).
    tag_consumes: list[dict[str, Any]] = field(default_factory=list)
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


def _value_ref(
    node: ast.expr,
) -> dict[str, Any] | None:
    """A literal/named message-kind or tag operand as a fact payload."""
    if isinstance(node, ast.Constant) and isinstance(node.value, (str, int)):
        return {"value": node.value}
    ref = _dotted(node)
    if ref is not None:
        return {"ref": ref}
    return None


class _FunctionExtractor(ast.NodeVisitor):
    """Walks one function body (including nested defs/lambdas)."""

    def __init__(
        self,
        facts: FunctionFacts,
        lock_attrs: set[str],
        sleep_modules: set[str],
        sleep_direct: set[str],
        is_transport: bool,
        waivers: Waivers,
    ) -> None:
        self.f = facts
        self.lock_attrs = lock_attrs
        self.sleep_modules = sleep_modules
        self.sleep_direct = sleep_direct
        self.is_transport = is_transport
        self.waivers = waivers
        self.held: list[str] = []

    # -- lock regions ------------------------------------------------------

    def visit_With(self, node: ast.With) -> None:
        acquired: list[str] = []
        for item in node.items:
            attr = _self_attr(item.context_expr)
            if attr is not None and attr in self.lock_attrs:
                for h in self.held:
                    self.f.lock_pairs.append((h, attr, node.lineno))
                self.f.lock_acquires.append((attr, node.lineno))
                acquired.append(attr)
        self.held.extend(acquired)
        self.generic_visit(node)
        for _ in acquired:
            self.held.pop()

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
            for h in self.held:
                self.f.calls_under_lock.append((h, expr, node.lineno))
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


def _required_init_args(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> int:
    args = fn.args
    positional = list(args.posonlyargs) + list(args.args)
    required = max(0, len(positional) - len(args.defaults))
    required += sum(
        1 for _, default in zip(args.kwonlyargs, args.kw_defaults) if default is None
    )
    return max(0, required - 1)  # drop self


def _looks_like_exception(bases: list[str]) -> bool:
    for base in bases:
        tail = base.split(".")[-1]
        if (
            tail in _BUILTIN_EXCEPTIONS
            or tail.endswith("Error")
            or tail.endswith("Exception")
            or tail.endswith("Violation")
            or tail.endswith("Full")
        ):
            return True
    return False


def _kind_source_vars(fn_node: ast.AST) -> dict[str, str]:
    """``k = frame.get("kind")`` / ``k = frame["kind"]`` -> {"k": "frame"}."""
    sources: dict[str, str] = {}
    for node in ast.walk(fn_node):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = node.value
        var: str | None = None
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "get"
            and value.args
            and isinstance(value.args[0], ast.Constant)
            and value.args[0].value == "kind"
            and isinstance(value.func.value, ast.Name)
        ):
            var = value.func.value.id
        elif (
            isinstance(value, ast.Subscript)
            and isinstance(value.slice, ast.Constant)
            and value.slice.value == "kind"
            and isinstance(value.value, ast.Name)
        ):
            var = value.value.id
        if var is not None:
            sources[target.id] = var
    return sources


def _kind_operand(node: ast.expr, kind_vars: dict[str, str]) -> str | None:
    """The message variable a "kind"-valued expression reads, if any.

    Recognises ``frame.get("kind")``, ``frame["kind"]`` and a local name
    previously assigned one of those; returns the frame variable name
    ("" when unknown but still kind-shaped).
    """
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "get"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and node.args[0].value == "kind"
    ):
        return (
            node.func.value.id if isinstance(node.func.value, ast.Name) else ""
        )
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.slice, ast.Constant)
        and node.slice.value == "kind"
    ):
        return node.value.id if isinstance(node.value, ast.Name) else ""
    if isinstance(node, ast.Name) and node.id in kind_vars:
        return kind_vars[node.id]
    if isinstance(node, ast.Name) and node.id == "kind":
        return ""
    return None


def _field_accesses(body: list[ast.stmt], var: str) -> list[list[Any]]:
    """``var["f"]`` / ``var.get("f"[, default])`` accesses inside ``body``."""
    fields: list[list[Any]] = []
    for stmt in body:
        for node in ast.walk(stmt):
            if (
                isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id == var
                and isinstance(node.slice, ast.Constant)
                and isinstance(node.slice.value, str)
            ):
                fields.append([node.slice.value, False, node.lineno])
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == var
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                has_default = len(node.args) > 1 or bool(node.keywords)
                fields.append([node.args[0].value, has_default, node.lineno])
    return fields


def _extract_messaging(
    facts: ModuleFacts, fn_node: ast.AST, qual: str
) -> None:
    """Message-protocol facts (RPR015) for one function body."""
    kind_vars = _kind_source_vars(fn_node)
    # Pass 1: producers — dict literals carrying a "kind" key.  Keyed by
    # the Dict node so an enclosing ``result = {...}`` assignment can map
    # the variable, letting later ``result["x"] = ...`` grow the key set.
    dict_entries: dict[int, dict[str, Any]] = {}
    for node in ast.walk(fn_node):
        if not isinstance(node, ast.Dict):
            continue
        keys = {
            k.value
            for k in node.keys
            if isinstance(k, ast.Constant) and isinstance(k.value, str)
        }
        if "kind" not in keys:
            continue
        idx = next(
            i
            for i, k in enumerate(node.keys)
            if isinstance(k, ast.Constant) and k.value == "kind"
        )
        ref = _value_ref(node.values[idx])
        if ref is not None:
            entry = dict(
                ref, keys=sorted(k for k in keys if k != "kind"),
                func=qual, line=node.lineno,
            )
            facts.dict_kinds.append(entry)
            dict_entries[id(node)] = entry
    producer_vars: dict[str, dict[str, Any]] = {}
    for node in ast.walk(fn_node):
        # Track ``result["x"] = ...`` growth of a kind-dict bound to a name.
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            if isinstance(node.value, ast.Dict):
                entry = dict_entries.get(id(node.value))
                if entry is not None:
                    producer_vars[node.target.id] = entry
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and isinstance(node.value, ast.Dict):
                entry = dict_entries.get(id(node.value))
                if entry is not None:
                    producer_vars[target.id] = entry
            elif (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and target.value.id in producer_vars
                and isinstance(target.slice, ast.Constant)
                and isinstance(target.slice.value, str)
            ):
                entry = producer_vars[target.value.id]
                entry["keys"] = sorted({*entry["keys"], target.slice.value})
        # Consumers: comparisons against a kind-valued expression.
        if isinstance(node, ast.Compare) and len(node.comparators) == 1:
            left, right = node.left, node.comparators[0]
            for kind_side, value_side in ((left, right), (right, left)):
                var = _kind_operand(kind_side, kind_vars)
                if var is None:
                    continue
                operands = (
                    list(value_side.elts)
                    if isinstance(value_side, (ast.Tuple, ast.List, ast.Set))
                    else [value_side]
                )
                for operand in operands:
                    ref = _value_ref(operand)
                    if ref is not None:
                        facts.kind_compares.append(
                            dict(ref, func=qual, line=node.lineno)
                        )
                break
        # Dispatch arms: ``if <kind expr> == K:`` -> field subset facts.
        if isinstance(node, ast.If) and isinstance(node.test, ast.Compare):
            test = node.test
            if len(test.ops) == 1 and isinstance(test.ops[0], ast.Eq):
                left, right = test.left, test.comparators[0]
                for kind_side, value_side in ((left, right), (right, left)):
                    var = _kind_operand(kind_side, kind_vars)
                    ref = _value_ref(value_side) if var else None
                    if var and ref is not None:
                        fields = _field_accesses(node.body, var)
                        if fields:
                            facts.kind_arms.append(
                                dict(ref, var=var, fields=fields, line=node.lineno)
                            )
                        break
        # Tag sends/consumes through a Communicator-style endpoint.
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            tag_node: ast.expr | None = None
            if attr in ("send", "bcast_from"):
                pos = 2 if attr == "send" else 1
                if len(node.args) > pos:
                    tag_node = node.args[pos]
                for kw in node.keywords:
                    if kw.arg == "tag":
                        tag_node = kw.value
            elif attr == "recv":
                for kw in node.keywords:
                    if kw.arg == "tag":
                        tag_node = kw.value
            if tag_node is not None:
                ref = _value_ref(tag_node)
                if ref is not None:
                    bucket = (
                        facts.tag_consumes if attr == "recv" else facts.tag_sends
                    )
                    bucket.append(dict(ref, func=qual, line=node.lineno))
        # ``msg.tag == T_X`` consumers.
        if isinstance(node, ast.Compare) and len(node.comparators) == 1:
            left, right = node.left, node.comparators[0]
            for tag_side, value_side in ((left, right), (right, left)):
                if (
                    isinstance(tag_side, ast.Attribute)
                    and tag_side.attr == "tag"
                ):
                    ref = _value_ref(value_side)
                    if ref is not None:
                        facts.tag_consumes.append(
                            dict(ref, func=qual, line=node.lineno)
                        )
                    break


def _extract_exceptions(
    facts: ModuleFacts, fn_node: ast.AST, qual: str
) -> None:
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            target = exc.func if isinstance(exc, ast.Call) else exc
            name = _dotted(target)
            if name is not None:
                facts.raises.append((name, qual, node.lineno))
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = (
                [t for t in (_dotted(e) for e in node.type.elts) if t]
                if isinstance(node.type, ast.Tuple)
                else ([_dotted(node.type)] if _dotted(node.type) else [])
            )
            if types:
                reraises = any(
                    isinstance(n, ast.Raise) for n in ast.walk(node)
                )
                facts.catches.append((types, reraises, qual, node.lineno))


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
    basename = Path(path).name
    import_targets = set(facts.imported_modules) | set(
        facts.import_aliases.values()
    )
    facts.msg_domain = any(
        m.endswith(_MSG_SUBSTRATE_SUFFIXES)
        or m in ("msgpass", "transport", "protocol")
        for m in import_targets
    ) or basename in ("msgpass.py", "transport.py", "protocol.py")

    # -- module-level constants -------------------------------------------
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
            if isinstance(node.value.value, (str, int, float, bool)):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        facts.constants[target.id] = node.value.value

    sleep_modules, sleep_direct = _time_aliases(tree, "sleep")
    is_transport = basename == _TRANSPORT_BASENAME

    def scan_function(
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
        qual: str,
        lock_attrs: set[str],
    ) -> FunctionFacts:
        ff = FunctionFacts(
            name=qual,
            line=fn.lineno,
            end_line=fn.end_lineno or fn.lineno,
            params=[a.arg for a in fn.args.posonlyargs + fn.args.args],
        )
        extractor = _FunctionExtractor(
            ff, lock_attrs, sleep_modules, sleep_direct, is_transport, waivers
        )
        for stmt in fn.body:
            extractor.visit(stmt)
        _extract_messaging(facts, fn, qual)
        _extract_exceptions(facts, fn, qual)
        return ff

    # -- top-level functions ----------------------------------------------
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            facts.functions[node.name] = scan_function(node, node.name, set())

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
            line=node.lineno,
            bases=[b for b in (_dotted(base) for base in node.bases) if b],
            methods=[m.name for m in methods],
        )
        lock_attrs: set[str] = set()
        for method in methods:
            for sub in ast.walk(method):
                if isinstance(sub, ast.Assign):
                    if _is_lock_factory(sub.value):
                        for target in sub.targets:
                            attr = _self_attr(target)
                            if attr is not None:
                                lock_attrs.add(attr)
                    elif isinstance(sub.value, ast.Call):
                        ctor = _dotted(sub.value.func)
                        if ctor and ctor.split(".")[-1][:1].isupper():
                            for target in sub.targets:
                                attr = _self_attr(target)
                                if attr is not None:
                                    cf.attr_types.setdefault(attr, ctor)
        cf.lock_attrs = sorted(lock_attrs)
        cf.is_exception = _looks_like_exception(cf.bases)
        for method in methods:
            if method.name == "__init__":
                cf.init_required = _required_init_args(method)
            if method.name in ("__reduce__", "__reduce_ex__", "__getnewargs__"):
                cf.has_reduce = True
            qual = f"{node.name}.{method.name}"
            facts.functions[qual] = scan_function(method, qual, lock_attrs)
        facts.classes[node.name] = cf

    return facts


# ---------------------------------------------------------------------------
# the program graph
# ---------------------------------------------------------------------------


class ProgramGraph:
    """Call graph + lock graph over a set of module facts.

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
        #: (class id, lock attr) -> [((class id, lock attr), evidence str)]
        self.lock_edges: dict[
            tuple[str, str], list[tuple[tuple[str, str], str]]
        ] = {}
        self._build_lock_edges()

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

    def resolve_constant(self, module: str, payload: dict[str, Any]) -> Any:
        """A ``{"value"|"ref"}`` fact payload -> concrete value (or None)."""
        if "value" in payload:
            return payload["value"]
        ref = payload.get("ref", "")
        mf = self.modules.get(module)
        if mf is None:
            return None
        parts = ref.split(".")
        if len(parts) == 1:
            if parts[0] in mf.constants:
                return mf.constants[parts[0]]
            target = mf.import_aliases.get(parts[0])
            if target is not None:
                owner, _, name = target.rpartition(".")
                owner_mf = self.modules.get(owner)
                if owner_mf is not None:
                    return owner_mf.constants.get(name)
            return None
        if len(parts) == 2:
            target = mf.import_aliases.get(parts[0])
            if target in self.modules:
                return self.modules[target].constants.get(parts[1])
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

    def _build_lock_edges(self) -> None:
        reach_cache: dict[str, set[str]] = {}

        def reachable_set(start: str) -> set[str]:
            cached = reach_cache.get(start)
            if cached is not None:
                return cached
            seen = {start}
            queue = deque([start])
            while queue:
                cur = queue.popleft()
                for callee, _ in self.call_edges.get(cur, ()):
                    if callee not in seen:
                        seen.add(callee)
                        queue.append(callee)
            reach_cache[start] = seen
            return seen

        def add_edge(
            src: tuple[str, str], dst: tuple[str, str], evidence: str
        ) -> None:
            if src == dst:
                return  # re-entrant same-lock nesting is RLock territory
            bucket = self.lock_edges.setdefault(src, [])
            if all(existing != dst for existing, _ in bucket):
                bucket.append((dst, evidence))

        for node_id, (mf, ff) in self.functions.items():
            if "." not in ff.name:
                continue
            cls_name = ff.name.split(".")[0]
            class_id = f"{mf.module}:{cls_name}"
            cf = mf.classes.get(cls_name)
            if cf is None or not cf.lock_attrs:
                continue
            for held, acquired, line in ff.lock_pairs:
                add_edge(
                    (class_id, held),
                    (class_id, acquired),
                    f"{mf.path}:{line} ({ff.name})",
                )
            for held, expr, line in ff.calls_under_lock:
                callee = self.resolve_call(mf, ff, expr)
                if callee is None:
                    continue
                for reached in reachable_set(callee):
                    entry = self.functions.get(reached)
                    if entry is None:
                        continue
                    rmf, rff = entry
                    if "." not in rff.name:
                        continue
                    rcls = rff.name.split(".")[0]
                    rcf = rmf.classes.get(rcls)
                    if rcf is None:
                        continue
                    for attr, aline in rff.lock_acquires:
                        if attr in rcf.lock_attrs:
                            add_edge(
                                (class_id, held),
                                (f"{rmf.module}:{rcls}", attr),
                                f"{mf.path}:{line} ({ff.name} -> {rff.name})",
                            )

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

    def import_closure(self, roots: Iterable[str]) -> set[str]:
        """Package modules transitively imported from ``roots``."""
        seen: set[str] = set()
        queue = deque(m for m in roots if m in self.modules)
        seen.update(queue)
        while queue:
            cur = queue.popleft()
            for target in self._imported_package_modules(self.modules[cur]):
                if target not in seen:
                    seen.add(target)
                    queue.append(target)
        return seen

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
            # Every class-attribute lock the facts pass identified ...
            "locks_seen": sum(
                len(cf.lock_attrs)
                for mf in self.modules.values()
                for cf in mf.classes.values()
            ),
            # ... of which only the endpoints of cross-class edges.
            "lock_nodes": len(
                {n for n in self.lock_edges}
                | {d for edges in self.lock_edges.values() for d, _ in edges}
            ),
            "lock_edges": sum(len(v) for v in self.lock_edges.values()),
        }

    def to_dict(self) -> dict[str, Any]:
        """JSON summary used by the golden-graph fixture tests."""
        return {
            "call_edges": {
                node: sorted({callee for callee, _ in edges})
                for node, edges in sorted(self.call_edges.items())
                if edges
            },
            "lock_edges": {
                f"{cls}.{attr}": sorted(
                    f"{dcls}.{dattr}" for (dcls, dattr), _ in edges
                )
                for (cls, attr), edges in sorted(self.lock_edges.items())
                if edges
            },
        }
