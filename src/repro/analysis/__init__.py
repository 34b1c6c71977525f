"""Static analysis + runtime invariant checking for the reproduction.

Two halves:

* ``repro lint`` (:mod:`repro.analysis.linter`) — project-specific
  AST lint rules guarding the paper's fragile fast paths: vectorised
  kernels, lock discipline in the speculative schedulers, bounded waits
  in handlers and lease paths, monotonic clocks, layer order.  Run via
  the CLI subcommand or ``python -m repro.analysis``.
* Runtime invariant validators (:mod:`repro.analysis.invariants`) —
  debug-mode checks of the heap upper-bound, triangle-monotonicity and
  shadow-row properties, enabled with ``REPRO_CHECK_INVARIANTS=1`` (or
  ``=full``).

See ``ANALYSIS.md`` at the repository root for the rule catalogue and
the paper section each check guards.
"""

from .diagnostics import Diagnostic, Severity
from .graph import ModuleFacts, ProgramGraph, extract_module_facts
from .invariants import (
    ENV_FLAG,
    InvariantChecker,
    InvariantViolation,
    TriangleMonotonicityValidator,
    check_heap_upper_bound,
    checker_from_env,
    invariant_mode,
    validate_shadow_rows,
)
from .linter import (
    AnalysisResult,
    active_rules,
    analyze_paths,
    collect_files,
    lint_file,
    lint_paths,
    main,
)

__all__ = [
    "Diagnostic",
    "Severity",
    "ModuleFacts",
    "ProgramGraph",
    "extract_module_facts",
    "lint_file",
    "lint_paths",
    "analyze_paths",
    "AnalysisResult",
    "collect_files",
    "active_rules",
    "main",
    "ENV_FLAG",
    "InvariantViolation",
    "InvariantChecker",
    "TriangleMonotonicityValidator",
    "checker_from_env",
    "invariant_mode",
    "check_heap_upper_bound",
    "validate_shadow_rows",
]
