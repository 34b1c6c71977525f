"""Alignment engines: the Equation 1 recurrence at three "instruction tiers"."""

from .base import (
    DEFAULT_ENGINE,
    DEFAULT_GROUP,
    ENGINE_NAMES,
    NEG_INF,
    AlignmentEngine,
    AlignmentProblem,
    OverrideProvider,
    Resume,
    get_engine,
)
from .lanes import LanesEngine
from .matrix import full_matrix, matrix_for_texts
from .profile import ProfileView, QueryProfile
from .pruning import PruneContext, PruneGate
from .scalar import ScalarEngine
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
    "ENGINE_NAMES",
    "NEG_INF",
    "AlignmentEngine",
    "AlignmentProblem",
    "OverrideProvider",
    "Resume",
    "get_engine",
    "ScalarEngine",
    "VectorEngine",
    "LanesEngine",
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
