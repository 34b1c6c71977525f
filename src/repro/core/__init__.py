"""The paper's contribution: the O(n³) top-alignment algorithm and Repro."""

from .api import RepeatFinder, find_repeats
from .bottomrows import BottomRowStore
from .consensus import (
    UnitChoice,
    block_identity,
    consensus_of_copies,
    phase_tandem,
    select_unit_length,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .delineate import column_classes, delineate_repeats
from .dotplot import dotplot_matrix, render_dotplot
from .msa import RepeatAlignment, align_family, render_msa
from .oldalgo import old_find_top_alignments
from .override import (
    DenseOverrideTriangle,
    OverrideTriangle,
    SparseOverrideTriangle,
    SplitOverrideView,
)
from .report import AnalysisReport, FamilyModel, analyze, extract_families
from .result import Repeat, RepeatResult, RunStats, TopAlignment
from .scan import (
    DatabaseScanner,
    SequenceReport,
    load_scan_payload,
    scan_to_payload,
)
from .session import TopAlignmentSession
from .significance import (
    NullDistribution,
    estimate_null,
    score_pvalue,
    shuffled,
)
from .tasks import NEVER_ALIGNED, Task, TaskQueue
from .topalign import TopAlignmentState, find_top_alignments

__all__ = [
    "find_top_alignments",
    "old_find_top_alignments",
    "TopAlignmentState",
    "find_repeats",
    "RepeatFinder",
    "TopAlignment",
    "Repeat",
    "RepeatResult",
    "RunStats",
    "Task",
    "TaskQueue",
    "NEVER_ALIGNED",
    "OverrideTriangle",
    "DenseOverrideTriangle",
    "SparseOverrideTriangle",
    "SplitOverrideView",
    "BottomRowStore",
    "column_classes",
    "delineate_repeats",
    "UnitChoice",
    "select_unit_length",
    "consensus_of_copies",
    "phase_tandem",
    "block_identity",
    "DatabaseScanner",
    "SequenceReport",
    "TopAlignmentSession",
    "NullDistribution",
    "estimate_null",
    "score_pvalue",
    "shuffled",
    "dotplot_matrix",
    "render_dotplot",
    "save_checkpoint",
    "load_checkpoint",
    "RepeatAlignment",
    "align_family",
    "render_msa",
    "AnalysisReport",
    "FamilyModel",
    "analyze",
    "extract_families",
    "scan_to_payload",
    "load_scan_payload",
]
