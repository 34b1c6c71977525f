"""Alignment engines: the Equation 1 recurrence at three "instruction tiers"."""

from .base import (
    DEFAULT_ENGINE,
    DEFAULT_GROUP,
    NEG_INF,
    AlignmentEngine,
    AlignmentProblem,
    OverrideProvider,
    available_engines,
    get_engine,
    register_engine,
)
from .diagonal import DiagonalEngine
from .gotoh import GotohEngine, gotoh_matrix
from .lanes import INT16_MAX, LanesEngine
from .matrix import full_matrix, matrix_for_texts
from .profile import ProfileView, QueryProfile
from .pruning import PruneContext, PruneGate
from .scalar import ScalarEngine
from .striped import StripedEngine
from .traceback import (
    AlignmentPath,
    TracebackStep,
    alignment_identity,
    render_alignment,
    traceback,
)
from .vector import VectorEngine, iter_rows

__all__ = [
    "DEFAULT_ENGINE",
    "DEFAULT_GROUP",
    "NEG_INF",
    "INT16_MAX",
    "AlignmentEngine",
    "AlignmentProblem",
    "OverrideProvider",
    "available_engines",
    "get_engine",
    "register_engine",
    "ScalarEngine",
    "VectorEngine",
    "GotohEngine",
    "DiagonalEngine",
    "gotoh_matrix",
    "LanesEngine",
    "StripedEngine",
    "QueryProfile",
    "ProfileView",
    "PruneContext",
    "PruneGate",
    "full_matrix",
    "matrix_for_texts",
    "iter_rows",
    "traceback",
    "render_alignment",
    "alignment_identity",
    "AlignmentPath",
    "TracebackStep",
]
