"""Wire protocol of the repro service.

Everything the server, the workers and the clients exchange is defined
here: the :class:`JobSpec` a client submits, the job lifecycle states,
the content digest that addresses results, and the JSON form of a
:class:`~repro.core.result.RepeatResult`.

Content addressing
------------------
Two submissions that must produce bit-identical results share one
digest: the SHA-256 of the *result-affecting* fields — sequence text,
alphabet, scoring model, search/delineation knobs — plus
:data:`ALGORITHM_VERSION`.  Execution knobs (``engine``, ``group``,
``priority``) are deliberately excluded: every engine of the closed
table (:data:`~repro.align.base.ENGINE_NAMES`, enforced at admission)
and every batch width returns the same alignments (the repo-wide
equivalence guarantee), so they must not fragment the cache.  Bump
:data:`ALGORITHM_VERSION` whenever a change alters what any spec
aligns to, and stale cache entries become unreachable automatically.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from numbers import Integral, Real
from typing import Any

from ..align.base import DEFAULT_ENGINE, DEFAULT_GROUP, ENGINE_NAMES
from ..core.api import RepeatFinder
from ..core.result import RepeatResult
from ..scoring.gaps import GapPenalties
from ..scoring.named import exchange_for
from ..sequences.alphabet import alphabet_for

__all__ = [
    "ALGORITHM_VERSION",
    "MAX_WAIT_S",
    "SCAN_PLACEHOLDER",
    "JobState",
    "SpecError",
    "JobSpec",
    "ProgressEvent",
    "finder_for",
    "job_digest",
    "result_to_dict",
]

#: Version of the alignment/delineation semantics baked into digests.
#: Bump on any change that alters the results some spec produces.
ALGORITHM_VERSION = 1

#: Longest ``GET /jobs/<id>?wait=<s>`` parks before it answers with a
#: record that is still live; a client asks for at most this much, so
#: an answer before the time it asked for means nothing will wake it.
MAX_WAIT_S = 30.0

#: Stand-in ``sequence`` of a spec that describes a *search* rather than
#: one job (a scan's shared spec, the CLI's local commands):
#: :func:`finder_for` reads only the scoring/search knobs, but
#: validation wants residues, and these are valid in every alphabet.
SCAN_PLACEHOLDER = "AA"

_ALPHABETS = ("protein", "dna", "rna")

#: Field types admission enforces before anything reads a value: a
#: ``bool`` is neither an integer nor a real here, and a real is finite.
_INTEGER_FIELDS = (
    "top_alignments", "group", "min_copy_length", "max_gap", "priority", "index_k"
)
_REAL_FIELDS = ("gap_open", "gap_extend", "min_score", "min_score_fraction")
_TEXT_FIELDS = ("alphabet", "seq_id", "engine", "algorithm")


class JobState:
    """Job lifecycle: ``queued → running → done | failed | cancelled``.

    A running job whose worker dies (or drains on shutdown) goes back
    to ``queued`` with its checkpoint kept, so the transition graph has
    one legal back-edge.
    """

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    ALL = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
    TERMINAL = (DONE, FAILED, CANCELLED)


class SpecError(ValueError):
    """A submitted job spec is malformed (HTTP 400)."""


@dataclass(frozen=True)
class JobSpec:
    """One unit of service work: a single-sequence repeat search.

    Mirrors the knobs of :class:`repro.core.api.RepeatFinder` plus the
    scheduling-only ``priority`` (higher runs earlier).  ``matrix`` is
    a name :func:`repro.scoring.named.exchange_for` accepts, ``None``
    being the alphabet's default.  :func:`finder_for` is the one way
    from a spec to the finder that runs it.
    """

    sequence: str
    alphabet: str = "protein"
    seq_id: str = ""
    top_alignments: int = 20
    matrix: str | None = None
    gap_open: float = 8.0
    gap_extend: float = 1.0
    engine: str = DEFAULT_ENGINE
    group: int = DEFAULT_GROUP
    algorithm: str = "new"
    min_score: float = 0.0
    min_copy_length: int = 2
    max_gap: int = 0
    min_score_fraction: float = 0.25
    priority: int = 0
    #: The k-mer index tier of a scan (``cluster scan`` ships them with
    #: its spec).  The single-job search does not read them: they stay
    #: accepted and validated so records written while ``submit`` had
    #: ``--index`` still load.  Neither enters the digest.
    index: bool = False
    index_k: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.sequence, str) or not self.sequence:
            raise SpecError("sequence must be a non-empty string")
        for name in _INTEGER_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, Integral) or isinstance(value, bool):
                raise SpecError(f"{name} must be an integer")
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, Real) or isinstance(value, bool):
                raise SpecError(f"{name} must be a number")
            if not math.isfinite(value):
                raise SpecError(f"{name} must be finite")
        for name in _TEXT_FIELDS:
            if not isinstance(getattr(self, name), str):
                raise SpecError(f"{name} must be a string")
        if not isinstance(self.matrix, (str, type(None))):
            raise SpecError("matrix must be a string or null")
        if not isinstance(self.index, bool):
            raise SpecError("index must be a boolean")
        if self.alphabet not in _ALPHABETS:
            raise SpecError(f"alphabet must be one of {_ALPHABETS}")
        if self.algorithm != "new":
            # The O(n⁴) Table 1 baseline cannot checkpoint, cancel or
            # drain; it is a test oracle (`core.oldalgo`), not an option.
            raise SpecError("algorithm must be 'new' (the service runs no other)")
        if self.engine not in ENGINE_NAMES:
            # Reject at admission, not in a worker — and never cache a
            # non-Equation-1 answer under an engine-blind digest.
            raise SpecError(f"engine must be one of {ENGINE_NAMES}")
        if self.index_k < 0:
            raise SpecError("index_k must be >= 0 (0 = per-alphabet default)")
        # Reject at admission, not in a worker, what the finder itself
        # rejects (matrix name, k, group, gap penalties) and residues
        # the alphabet cannot encode.
        try:
            finder_for(self)
            alphabet_for(self.alphabet).encode(self.normalized_sequence())
        except ValueError as exc:
            raise SpecError(str(exc)) from None

    def normalized_sequence(self) -> str:
        """Case-folded residue text (the canonical digest form)."""
        return self.sequence.upper()

    # -- wire form -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "JobSpec":
        """Validate and build a spec from a JSON object."""
        if not isinstance(payload, dict):
            raise SpecError("job spec must be a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(payload) - known
        if unknown:
            raise SpecError(f"unknown job spec field(s): {sorted(unknown)}")
        if "sequence" not in payload:
            raise SpecError("job spec requires a 'sequence' field")
        try:
            return cls(**payload)
        except TypeError as exc:
            raise SpecError(str(exc)) from None

    # -- content addressing ----------------------------------------------

    def digest_fields(self) -> dict[str, Any]:
        """The result-affecting fields, in canonical form."""
        return {
            "version": ALGORITHM_VERSION,
            "sequence": self.normalized_sequence(),
            "alphabet": self.alphabet,
            "matrix": self.matrix,
            "gap_open": float(self.gap_open),
            "gap_extend": float(self.gap_extend),
            "top_alignments": int(self.top_alignments),
            "algorithm": "new",  # the literal keeps pre-existing digests valid
            "min_score": float(self.min_score),
            "min_copy_length": int(self.min_copy_length),
            "max_gap": int(self.max_gap),
            "min_score_fraction": float(self.min_score_fraction),
        }


def job_digest(spec: JobSpec) -> str:
    """SHA-256 content address of ``spec``'s result."""
    canonical = json.dumps(
        spec.digest_fields(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class ProgressEvent:
    """One line of a job's progress stream (``GET /jobs/<id>/events``)."""

    event: str
    t: float = 0.0
    data: dict[str, Any] = field(default_factory=dict)

    def to_line(self) -> str:
        payload = {"event": self.event, "t": self.t, **self.data}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def finder_for(spec: JobSpec, *, prune: bool = True) -> RepeatFinder:
    """The :class:`RepeatFinder` that runs ``spec``.

    The one construction behind ``repro find``/``scan``/``annotate``,
    the service workers and the cluster's shards, so a spec means the
    same search wherever it runs.  ``prune`` is not a spec field —
    results are identical either way — and only the local commands
    offer it.
    """
    return RepeatFinder(
        exchange=exchange_for(spec.matrix, alphabet_for(spec.alphabet)),
        gaps=GapPenalties(spec.gap_open, spec.gap_extend),
        top_alignments=spec.top_alignments,
        engine=spec.engine,
        group=spec.group,
        min_score=spec.min_score,
        prune=prune,
        min_copy_length=spec.min_copy_length,
        max_gap=spec.max_gap,
        min_score_fraction=spec.min_score_fraction,
    )


def result_to_dict(
    result: RepeatResult, *, digest: str, spec: JobSpec
) -> dict[str, Any]:
    """JSON payload stored in the result cache for one finished job:
    the result body (:meth:`RepeatResult.to_dict`) inside the job's
    envelope — the form :func:`repro.core.result.render_summary` shows.
    """
    return {
        "digest": digest,
        "sequence_id": spec.seq_id,
        "length": len(spec.normalized_sequence()),
        **result.to_dict(),
    }
