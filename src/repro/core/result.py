"""Result types: top alignments, repeats, statistics — and their one
JSON form.

:meth:`RepeatResult.to_dict` / :meth:`RepeatResult.from_dict` are the
only encoder and decoder of a result; the scan document
(:mod:`repro.core.scan`), the cluster report and the service's cache
payload are envelopes that add their own keys around this body, and
:func:`render_summary` is the one human rendering of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["TopAlignment", "Repeat", "RunStats", "RepeatResult", "render_summary"]


@dataclass(frozen=True)
class TopAlignment:
    """One accepted nonoverlapping top alignment.

    Attributes
    ----------
    index:
        Acceptance order (0 = first/best top alignment).
    r:
        The split point whose matrix produced it.
    score:
        Alignment score (identical with and without the override
        triangle — shadow alignments are never accepted).
    pairs:
        The matched residue pairs ``(i, j)`` in *global* 1-based
        sequence coordinates, ``i <= r < j``, ordered along the path.
    """

    index: int
    r: int
    score: float
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        for i, j in self.pairs:
            if not i <= self.r < j:
                raise ValueError(
                    f"pair ({i}, {j}) does not straddle split r={self.r}"
                )

    @property
    def prefix_interval(self) -> tuple[int, int]:
        """1-based inclusive span of the alignment on the prefix side."""
        return self.pairs[0][0], self.pairs[-1][0]

    @property
    def suffix_interval(self) -> tuple[int, int]:
        """1-based inclusive span of the alignment on the suffix side."""
        return self.pairs[0][1], self.pairs[-1][1]

    def __len__(self) -> int:
        return len(self.pairs)

    def overlaps(self, other: "TopAlignment") -> bool:
        """Whether two alignments share any matched pair (must never happen)."""
        return bool(set(self.pairs) & set(other.pairs))


@dataclass(frozen=True)
class Repeat:
    """One delineated repeat family (Repro phase 2 output).

    ``copies`` holds the 1-based inclusive ``(start, end)`` interval of
    each detected copy; ``columns`` is the number of equivalence
    classes (alignment columns) supporting the family — a proxy for the
    conserved core length of the repeat unit.
    """

    family: int
    copies: tuple[tuple[int, int], ...]
    columns: int

    @property
    def n_copies(self) -> int:
        """Number of detected copies."""
        return len(self.copies)

    @property
    def unit_length(self) -> float:
        """Mean copy length."""
        if not self.copies:
            return 0.0
        return sum(e - s + 1 for s, e in self.copies) / len(self.copies)


#: RunStats counter field -> (global mirror metric, help text).  The
#: mirror names are the public metric catalogue documented in README's
#: "Observability" section.
_STAT_MIRRORS: dict[str, tuple[str, str]] = {
    "alignments": (
        "repro_alignments_total",
        "Bottom-row alignments computed by the engines (first passes and realignments)",
    ),
    "realignments": (
        "repro_realignments_total",
        "Alignments beyond the first per task (non-empty override-triangle history)",
    ),
    "cells": (
        "repro_cells_total",
        "Dynamic-programming matrix cells evaluated",
    ),
    "tracebacks": (
        "repro_tracebacks_total",
        "Full-matrix traceback recomputations (one per accepted top alignment)",
    ),
    "speculative_waste": (
        "repro_speculative_waste_total",
        "Speculative lane realignments invalidated before their score was consumed",
    ),
    "engine_seconds": (
        "repro_engine_seconds_total",
        "Monotonic seconds spent inside engine calls",
    ),
    "pruned_cells": (
        "repro_prune_cells_total",
        "Matrix cells skipped because a prune bound proved them unnecessary",
    ),
    "pruned_lanes": (
        "repro_prune_lanes_total",
        "Splits retired unfilled by their exact block bound",
    ),
}


def _stat_property(name: str) -> property:
    """A RunStats counter: local per-run value + global registry mirror.

    The getter reads the per-run instrument; the setter applies the
    delta to it *and* forwards the same delta to the process-wide
    registry counter when collection is enabled — so ``stats.cells +=
    n`` is the single bookkeeping statement for both scopes (no
    parallel tallies to drift apart).
    """

    def fget(self: "RunStats") -> Any:
        return self._values[name]

    def fset(self: "RunStats", value: Any) -> None:
        mirrors = self._mirrors
        if mirrors is not None:
            delta = value - self._values[name]
            if delta:
                mirrors[name].inc(delta)
        self._values[name] = value

    return property(fget, fset, doc=f"Per-run {name.replace('_', ' ')} counter.")


class RunStats:
    """Instrumentation of one top-alignment run.

    These counters back the §3/§5.1 claims: the realignment fraction
    (90–97 % avoided), speculation overhead (<0.70 % extra alignments
    for lane groups), and the cost model of the cluster simulator.

    Since the :mod:`repro.obs` subsystem, RunStats is a *view* over
    per-run instruments rather than a parallel bookkeeping path: each
    counter assignment updates the run-local instrument and, when
    process-wide metrics collection is enabled (the service,
    ``--emit-metrics`` bench runs, ``REPRO_METRICS=1``), mirrors the
    delta into the global registry counters named in
    ``_STAT_MIRRORS``.  With collection disabled the mirror branch is
    a single ``None`` check, keeping the hot path at its pre-obs cost.
    """

    __slots__ = ("_values", "_mirrors", "realignments_per_top", "engine", "group")

    #: Counter fields, in (legacy dataclass) declaration order — the
    #: positional-argument order of ``__init__``.
    _COUNTER_FIELDS = (
        "alignments",
        "realignments",
        "cells",
        "tracebacks",
        "engine_seconds",
        "speculative_waste",
        "pruned_cells",
        "pruned_lanes",
    )

    def __init__(
        self,
        alignments: int = 0,
        realignments: int = 0,
        cells: int = 0,
        tracebacks: int = 0,
        realignments_per_top: list[int] | None = None,
        engine_seconds: float = 0.0,
        engine: str = "",
        group: int = 1,
        speculative_waste: int = 0,
        pruned_cells: int = 0,
        pruned_lanes: int = 0,
    ) -> None:
        self._values: dict[str, Any] = {
            "alignments": alignments,
            "realignments": realignments,
            "cells": cells,
            "tracebacks": tracebacks,
            "engine_seconds": engine_seconds,
            "speculative_waste": speculative_waste,
            "pruned_cells": pruned_cells,
            "pruned_lanes": pruned_lanes,
        }
        #: Realignments performed between consecutive acceptances,
        #: indexed by the top-alignment number being searched for.
        self.realignments_per_top: list[int] = (
            realignments_per_top if realignments_per_top is not None else []
        )
        #: Configuration tag of the engine that computed the alignments
        #: (``AlignmentEngine.describe()``; "" until a state binds one).
        #: For ``lanes`` the bracket is the widest work type the engine
        #: instance has used so far, this search or an earlier one.
        self.engine = engine
        #: Scheduling group width G (1 = strictly sequential best-first;
        #: set by the speculative batched driver).
        self.group = group
        self._mirrors: dict[str, Any] | None = None
        self._bind_mirrors()

    def _bind_mirrors(self) -> None:
        """Attach global registry counters (None while collection is off)."""
        from ..obs import get_registry

        registry = get_registry()
        if registry.collecting:
            self._mirrors = {
                field_name: registry.counter(metric, help=help_text)
                for field_name, (metric, help_text) in _STAT_MIRRORS.items()
            }
        else:
            self._mirrors = None

    #: Bottom-row alignments computed by the engine (first passes and
    #: realignments; excludes traceback recomputations and the block
    #: fills that bound the first passes — those are no split's
    #: alignment and show in ``cells`` and ``engine_seconds`` only).
    alignments = _stat_property("alignments")
    #: Alignments beyond the first per task (i.e. with a non-empty
    #: override triangle history).
    realignments = _stat_property("realignments")
    #: Matrix cells filled across all alignments and block fills.  A
    #: realignment that resumed from a saved row counts only the rows it
    #: filled below it (``AlignmentProblem.cells``).
    cells = _stat_property("cells")
    #: Full-matrix traceback recomputations (one per accepted alignment).
    tracebacks = _stat_property("tracebacks")
    #: Monotonic seconds spent in engine calls (approximate).
    engine_seconds = _stat_property("engine_seconds")
    #: Speculative lane realignments invalidated by an acceptance before
    #: their fresh score was ever consumed (§5.1-style waste).
    speculative_waste = _stat_property("speculative_waste")
    #: The whole matrices (``r * (m - r)`` cells) of the splits counted
    #: in ``pruned_lanes``.
    pruned_cells = _stat_property("pruned_cells")
    #: Splits retired for good without a fill: their exact bound
    #: (align.pruning) was at or below the run's ``min_score`` when the
    #: session attached — a fill stopped at row 0.  Counted once per
    #: search, not per ``extend``, chunk or policy thread.  (Splits whose
    #: bound merely never topped the heap are not counted: they are
    #: ``m - 1`` less the first passes, ``alignments - realignments``.)
    pruned_lanes = _stat_property("pruned_lanes")

    # -- serialisation support (checkpoints, multiprocessing) -------------

    def __getstate__(self) -> dict[str, Any]:
        return {
            **self._values,
            "realignments_per_top": self.realignments_per_top,
            "engine": self.engine,
            "group": self.group,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        # .get(): checkpoints written before a counter existed load as 0.
        self._values = {name: state.get(name, 0) for name in self._COUNTER_FIELDS}
        self.realignments_per_top = state["realignments_per_top"]
        self.engine = state["engine"]
        self.group = state["group"]
        # Rebind against the *receiving* process's registry: mirror
        # instruments hold locks and must never cross a pickle boundary.
        self._bind_mirrors()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunStats):
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __repr__(self) -> str:
        parts = ", ".join(f"{k}={v!r}" for k, v in self.__getstate__().items())
        return f"RunStats({parts})"


@dataclass
class RepeatResult:
    """Everything :func:`repro.core.api.find_repeats` returns."""

    top_alignments: list[TopAlignment]
    repeats: list[Repeat]
    stats: RunStats

    def to_dict(self, *, stats: bool = True) -> dict[str, Any]:
        """Plain-JSON form (inverse of :meth:`from_dict`).

        Floats round-trip exactly through ``json`` (shortest-repr), so
        two forms compare equal iff the results are bit-identical.
        ``stats=False`` leaves the work counters out: they legitimately
        differ between runs that must agree on every alignment and
        family (sharded vs local, resumed vs uninterrupted), and
        ``engine_seconds`` differs between any two runs.
        """
        body: dict[str, Any] = {
            "top_alignments": [
                {
                    "index": int(a.index),
                    "r": int(a.r),
                    "score": float(a.score),
                    "pairs": [[int(i), int(j)] for i, j in a.pairs],
                }
                for a in self.top_alignments
            ],
            "repeats": [
                {
                    "family": int(rep.family),
                    "copies": [[int(s), int(e)] for s, e in rep.copies],
                    "columns": int(rep.columns),
                    "n_copies": int(rep.n_copies),
                    "unit_length": float(rep.unit_length),
                }
                for rep in self.repeats
            ],
        }
        if stats:
            state = self.stats.__getstate__()
            state["realignments_per_top"] = list(state["realignments_per_top"])
            body["stats"] = state
        return body

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RepeatResult":
        """Rebuild a result from its JSON form, bare or inside any of
        its envelopes: unknown keys (an envelope's own, the derived
        ``n_copies``/``unit_length``) are ignored and missing stats
        counters default to 0.
        """
        known = {*RunStats._COUNTER_FIELDS, "realignments_per_top", "engine", "group"}
        return cls(
            top_alignments=[
                TopAlignment(
                    index=int(a["index"]),
                    r=int(a["r"]),
                    score=float(a["score"]),
                    pairs=tuple((int(i), int(j)) for i, j in a["pairs"]),
                )
                for a in payload.get("top_alignments", [])
            ],
            repeats=[
                Repeat(
                    family=int(rep["family"]),
                    copies=tuple((int(s), int(e)) for s, e in rep["copies"]),
                    columns=int(rep["columns"]),
                )
                for rep in payload.get("repeats", [])
            ],
            stats=RunStats(
                **{k: v for k, v in payload.get("stats", {}).items() if k in known}
            ),
        )


def render_summary(payload: dict[str, Any]) -> str:
    """The human summary of one result in its dict form.

    ``payload`` is :meth:`RepeatResult.to_dict` plus the envelope keys
    ``sequence_id`` and ``length`` (and ``digest``, shown when present)
    — the service's cache payload as it is, or what ``repro find``
    wraps around a fresh result.
    """
    digest = payload.get("digest")
    lines = [
        f">{payload.get('sequence_id') or '<unnamed>'} length={payload['length']}"
        + (f" digest={digest[:16]}" if digest else ""),
        f"  top alignments: {len(payload['top_alignments'])}  "
        f"repeat families: {len(payload['repeats'])}  "
        f"alignments computed: {payload['stats']['alignments']}",
    ]
    for repeat in payload["repeats"]:
        spans = ", ".join(f"{s}-{e}" for s, e in repeat["copies"])
        lines.append(
            f"  family {repeat['family']}: {repeat['n_copies']} copies "
            f"(~{repeat['unit_length']:.0f} aa, {repeat['columns']} conserved "
            f"cols): {spans}"
        )
    return "\n".join(lines)
