"""Diagnostics substrate for ``repro lint``.

A :class:`Diagnostic` is one finding of one rule at one source
location.  Findings can be *suppressed* at the line or file level with
structured waiver comments, mirroring how the paper's own invariants
admit intentional exceptions (e.g. the scalar reference engine is a
per-cell loop *on purpose* — it is Table 2's "conventional instruction
set" baseline):

``# repro-lint: allow[RPR001] <reason>``
    waives rule ``RPR001`` on this line (trailing comment) or, when the
    comment is a standalone line, on the following line;
``# repro-lint: allow-file[RPR001] <reason>``
    waives rule ``RPR001`` for the whole file (must appear in the first
    ``FILE_WAIVER_WINDOW`` lines);
``# repro-lint: holds-lock``
    not a waiver — marks a method whose *caller* must hold the class
    lock (consumed by the RPR003 lock-discipline detector).

A reason is mandatory: a waiver without one is itself reported
(``RPR000``), so suppressions stay auditable.
"""

from __future__ import annotations

import enum
import io
import re
import tokenize
from dataclasses import dataclass, field

__all__ = [
    "Severity",
    "Diagnostic",
    "Waivers",
    "parse_waivers",
    "HOLDS_LOCK_MARK",
    "FILE_WAIVER_WINDOW",
]

#: File-level waivers must appear within this many leading lines.
FILE_WAIVER_WINDOW = 12

#: Marker comment consumed by the lock-discipline rule.
HOLDS_LOCK_MARK = "repro-lint: holds-lock"

_WAIVER_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<kind>allow|allow-file)\[(?P<rules>[A-Z0-9, ]+)\]\s*(?P<reason>.*)"
)


class Severity(enum.Enum):
    """How bad a finding is; only errors affect the exit code."""

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding at one location."""

    rule: str
    path: str
    line: int
    message: str
    severity: Severity = Severity.ERROR
    #: Interprocedural findings carry the call chain that reaches the
    #: defect (``module:qualname`` node ids); empty for per-file rules.
    trace: tuple[str, ...] = ()

    def render(self) -> str:
        """GCC-style one-liner (clickable ``path:line`` in most UIs)."""
        return f"{self.path}:{self.line}: {self.severity} [{self.rule}] {self.message}"

    def to_dict(self) -> dict:
        data = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "severity": str(self.severity),
            "message": self.message,
        }
        if self.trace:
            data["trace"] = list(self.trace)
        return data


@dataclass
class Waivers:
    """Parsed suppression state of one source file."""

    #: rule id -> set of waived line numbers (1-based).
    lines: dict[str, set[int]] = field(default_factory=dict)
    #: rule ids waived for the entire file.
    file_rules: set[str] = field(default_factory=set)
    #: diagnostics produced by malformed waivers (missing reason, ...).
    problems: list[Diagnostic] = field(default_factory=list)

    def is_waived(self, rule: str, line: int) -> bool:
        """Whether ``rule`` is suppressed at ``line``."""
        if rule in self.file_rules:
            return True
        return line in self.lines.get(rule, ())


def _comment_tokens(source: str) -> list[tuple[int, str, str]]:
    """``(line, comment_text, full_line)`` for every real comment token.

    Tokenising (rather than regex over raw lines) keeps waiver examples
    inside docstrings and string literals from being treated as live
    suppressions.
    """
    comments: list[tuple[int, str, str]] = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                comments.append((token.start[0], token.string, token.line))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # the linter reports the syntax error separately
    return comments


def parse_waivers(source: str, path: str) -> Waivers:
    """Extract waiver comments from ``source``.

    A standalone waiver comment (a line holding nothing else) applies
    to the next *code* line — intervening comment/blank lines are
    skipped, so a waiver's justification may wrap over several comment
    lines.
    """
    waivers = Waivers()
    source_lines = source.splitlines()

    def next_code_line(after: int) -> int:
        for lineno in range(after, len(source_lines) + 1):
            stripped = source_lines[lineno - 1].strip()
            if stripped and not stripped.startswith("#"):
                return lineno
        return after

    for lineno, comment, text in _comment_tokens(source):
        match = _WAIVER_RE.search(comment)
        if match is None:
            continue
        rules = [r.strip() for r in match.group("rules").split(",") if r.strip()]
        reason = match.group("reason").strip()
        if not reason:
            waivers.problems.append(
                Diagnostic(
                    rule="RPR000",
                    path=path,
                    line=lineno,
                    message="waiver comment without a reason "
                    "(write `# repro-lint: allow[RPRnnn] why`)",
                )
            )
            continue
        standalone = text.lstrip().startswith("#")
        target = next_code_line(lineno + 1) if standalone else lineno
        for rule in rules:
            if match.group("kind") == "allow-file":
                if lineno <= FILE_WAIVER_WINDOW:
                    waivers.file_rules.add(rule)
                else:
                    waivers.problems.append(
                        Diagnostic(
                            rule="RPR000",
                            path=path,
                            line=lineno,
                            message=f"allow-file[{rule}] must appear in the "
                            f"first {FILE_WAIVER_WINDOW} lines",
                        )
                    )
            else:
                waivers.lines.setdefault(rule, set()).update((lineno, target))
    return waivers
