"""Linter driver + CLI integration, including the repo-is-clean gate.

``test_repo_is_lint_clean`` is the acceptance criterion from the issue:
``repro lint src/repro`` exits 0 on the shipped tree with every rule
active — the same invocation CI runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import active_rules, collect_files, lint_paths
from repro.analysis.linter import main as lint_main
from repro.cli import main as cli_main

REPO = Path(__file__).parents[2]
SRC = REPO / "src" / "repro"


def test_at_least_eight_rules_active():
    # Exactly the rules that fire on the tree with its waivers stripped
    # (ANALYSIS.md, "Which rules exist"), plus waiver hygiene and the
    # layer-order table.
    assert active_rules() == [
        "RPR000", "RPR001", "RPR003", "RPR010", "RPR011", "RPR013",
        "RPR017", "RPR020",
    ]


def test_repo_is_lint_clean():
    findings = lint_paths([SRC])
    assert findings == [], "\n".join(d.render() for d in findings)


def test_repo_lint_clean_includes_benchmarks_and_tests():
    paths = [SRC, REPO / "benchmarks", REPO / "examples", REPO / "tests"]
    findings = lint_paths([p for p in paths if p.exists()])
    assert findings == [], "\n".join(d.render() for d in findings)


def test_collect_files_skips_caches(tmp_path):
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "junk.py").write_text("x = 1\n")
    (tmp_path / "real.py").write_text("x = 1\n")
    files = collect_files([tmp_path])
    assert [f.name for f in files] == ["real.py"]


def test_collect_files_missing_path_raises():
    with pytest.raises(FileNotFoundError):
        collect_files([REPO / "no_such_dir"])


class TestLintMain:
    def test_clean_tree_exits_zero(self, capsys):
        assert lint_main([str(SRC / "analysis")]) == 0
        err = capsys.readouterr().err
        assert "0 finding(s)" in err
        assert "8 rules active" in err

    def test_violations_exit_one_with_rendered_findings(self, tmp_path, capsys):
        bad = tmp_path / "core" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("import time\n\nstamp = time.time()\n")
        assert lint_main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "RPR011" in out and "bad.py:3" in out

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "core" / "bad.py"
        bad.parent.mkdir()
        bad.write_text("import time\n\nstamp = time.time()\n")
        assert lint_main(["--format", "json", str(bad)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["rule"] == "RPR011"
        assert payload[0]["line"] == 3

    def test_missing_path_exits_two(self, capsys):
        assert lint_main([str(REPO / "no_such_dir")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in active_rules():
            assert rule in out


class TestCliIntegration:
    def test_repro_lint_subcommand(self, capsys):
        assert cli_main(["lint", str(SRC / "analysis")]) == 0
        assert "8 rules active" in capsys.readouterr().err

    def test_repro_lint_propagates_failure(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("import numpy as np\n")
        (tmp_path / "core").mkdir()
        timer = tmp_path / "core" / "t.py"
        timer.write_text("import time\nstamp = time.time()\n")
        assert cli_main(["lint", str(tmp_path)]) == 1
        assert "RPR011" in capsys.readouterr().out

    def test_repro_lint_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        assert "RPR003" in capsys.readouterr().out

    def test_python_dash_m_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(SRC / "analysis")],
            capture_output=True,
            text=True,
            cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        assert "8 rules active" in proc.stderr
