"""The interprocedural rule RPR013 over the program graph.

It consumes the facts and resolution services of
:class:`repro.analysis.graph.ProgramGraph` and re-parses no source.
Test modules never contribute entry points, sinks or findings.

``RPR013`` blocking-call reachability
    a ``do_*``/``handle*``/``*Handler`` entry point, or a function
    holding a cluster lease (a ``lease`` parameter), *transitively*
    reaches ``time.sleep`` / an unbounded ``Queue.get`` / an unbounded
    socket ``recv``/``accept``.  This upgrades RPR010 from syntactic to
    semantic: the per-file rule sees only the entry function's own
    body, this rule follows the call graph.
"""

from __future__ import annotations

from .diagnostics import Diagnostic
from .graph import ProgramGraph

__all__ = ["rule_blocking_reachability"]


def _entry_kind(graph: ProgramGraph, node_id: str) -> str | None:
    """"handler"/"lease" when ``node_id`` is an RPR013 entry point."""
    mf, ff = graph.functions[node_id]
    if mf.is_test:
        return None
    short = ff.name.split(".")[-1]
    if short.startswith("do_") or short.startswith("handle"):
        return "handler"
    if "." in ff.name:
        cf = mf.classes.get(ff.name.split(".")[0])
        if cf is not None and any(
            base.split(".")[-1].endswith("Handler") for base in cf.bases
        ):
            return "handler"
    params = ff.params[1:] if ff.params[:1] == ["self"] else ff.params
    if "lease" in params:
        return "lease"
    return None


def rule_blocking_reachability(graph: ProgramGraph) -> list[Diagnostic]:
    """RPR013 — entry points that transitively reach a blocking sink."""
    findings: list[Diagnostic] = []
    for node_id in sorted(graph.functions):
        kind = _entry_kind(graph, node_id)
        if kind is None:
            continue
        mf, ff = graph.functions[node_id]
        parents = graph.reachable(node_id)
        for reached in [node_id, *sorted(parents)]:
            rmf, rff = graph.functions[reached]
            if rmf.is_test or not rff.blocking:
                continue
            if reached == node_id and kind == "handler":
                continue  # a direct sink in a handler is RPR010's call
            chain = graph.path_to(node_id, reached, parents)
            chain_names = [n.split(":", 1)[1] for n in chain]
            for sink, sline in rff.blocking:
                what = (
                    "a service request handler"
                    if kind == "handler"
                    else "a cluster lease-holding path"
                )
                findings.append(
                    Diagnostic(
                        rule="RPR013",
                        path=mf.path,
                        line=ff.line,
                        message=f"{ff.name} is {what} that transitively "
                        f"reaches {sink} at {rmf.path}:{sline} via "
                        + " -> ".join(chain_names)
                        + "; bound the wait or waive the sink with "
                        "`# repro-lint: allow[RPR013] reason`",
                        trace=tuple(chain),
                    )
                )
    return findings
