"""One rule list: ``RULE_DOC``, ANALYSIS.md's table and the seeds agree.

A rule earns its place by firing (ANALYSIS.md, "Which rules exist"), so
the catalogue must not drift from the code in either direction, and no
rule may outlive its planted violation.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.analysis import lint_paths
from repro.analysis.linter import RULE_DOC

from .test_lint_rules import (
    ANNOT_ALIGN_IMPORTS,
    INDEX_ALIGN_IMPORTS,
    PER_CELL_LOOP,
    SLEEPING_HANDLER,
    _write,
)
from .test_lock_discipline import RACY_SCHEDULER

ANALYSIS_MD = Path(__file__).resolve().parents[2] / "ANALYSIS.md"

#: Rule id -> (path that puts the file in the rule's scope, planted source).
SEEDED = {
    "RPR000": ("anywhere.py", "x = 1  # repro-lint: allow[RPR001]\n"),
    "RPR001": ("align/bad_kernel.py", PER_CELL_LOOP),
    "RPR003": ("sched.py", RACY_SCHEDULER),
    "RPR010": ("service/bad_server.py", SLEEPING_HANDLER),
    "RPR011": ("core/timing.py", "import time\n\nstamp = time.time()\n"),
    "RPR013": (
        "api.py",
        """
        import time

        def _wait():
            time.sleep(1)

        def do_fetch():
            _wait()
        """,
    ),
    "RPR017": ("index/bad_routing.py", INDEX_ALIGN_IMPORTS),
    "RPR020": ("annot/bad_renderer.py", ANNOT_ALIGN_IMPORTS),
}


def test_analysis_md_catalogue_lists_exactly_the_active_rules():
    catalogue = ANALYSIS_MD.read_text().split("## Rule catalogue")[1].split("\n## ")[0]
    table = re.findall(r"^\| `(RPR\d{3})` \|", catalogue, re.M)
    assert table == sorted(RULE_DOC)


def test_every_rule_has_a_seeded_violation(tmp_path):
    assert set(SEEDED) == set(RULE_DOC)
    for rule, (relpath, source) in SEEDED.items():
        path = _write(tmp_path / rule, relpath, source)
        assert rule in {d.rule for d in lint_paths([path])}, rule
