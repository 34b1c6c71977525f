"""SARIF 2.1.0 output: schema validation and CLI round trips."""

import json

import pytest

from repro.analysis.linter import RULE_DOC, analyze_paths
from repro.analysis.linter import main as lint_main
from repro.analysis.sarif import SARIF_VERSION, sarif_dict

from .conftest import FIXTURES

SUBSET_SCHEMA = FIXTURES / "sarif-2.1.0-subset.schema.json"


def sarif_for(minipkg):
    findings = analyze_paths([str(minipkg)]).findings
    return sarif_dict(findings, RULE_DOC)


class TestSchemaValidation:
    def test_validates_against_sarif_2_1_0(self, minipkg):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SUBSET_SCHEMA.read_text())
        jsonschema.validate(sarif_for(minipkg), schema)

    def test_empty_log_validates_too(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SUBSET_SCHEMA.read_text())
        jsonschema.validate(sarif_dict([], RULE_DOC), schema)


class TestStructure:
    def test_version_and_driver(self, minipkg):
        log = sarif_for(minipkg)
        assert log["version"] == SARIF_VERSION
        driver = log["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        assert {r["id"] for r in driver["rules"]} == set(RULE_DOC)

    def test_rule_index_points_at_its_rule(self, minipkg):
        log = sarif_for(minipkg)
        rules = log["runs"][0]["tool"]["driver"]["rules"]
        for result in log["runs"][0]["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]

    def test_every_result_has_a_real_location(self, minipkg):
        for result in sarif_for(minipkg)["runs"][0]["results"]:
            loc = result["locations"][0]["physicalLocation"]
            assert loc["artifactLocation"]["uri"]
            assert loc["region"]["startLine"] >= 1

    def test_interproc_results_carry_call_chain(self, minipkg):
        results = sarif_for(minipkg)["runs"][0]["results"]
        chains = [
            r["properties"]["callChain"]
            for r in results
            if r["ruleId"] == "RPR013" and "properties" in r
        ]
        assert chains and all(len(c) >= 1 for c in chains)


class TestCli:
    def test_sarif_format_with_findings(self, minipkg, capsys):
        assert lint_main(["--format", "sarif", str(minipkg)]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == SARIF_VERSION
        assert log["runs"][0]["results"]

    def test_sarif_format_on_clean_tree(self, tmp_path, capsys):
        clean = tmp_path / "ok.py"
        clean.write_text('"""Nothing to see."""\n\nX = 1\n')
        assert lint_main(["--format", "sarif", str(clean)]) == 0
        log = json.loads(capsys.readouterr().out)
        assert log["runs"][0]["results"] == []

    def test_stats_flag_emits_json(self, minipkg, capsys):
        lint_main(["--stats", str(minipkg)])
        stats = json.loads(capsys.readouterr().out)
        assert stats["files"] == 3
        assert stats["rules_active"] == len(RULE_DOC)
        assert "rule_timings_ms" in stats and "total_ms" in stats
        assert stats["functions"] == 9 and stats["call_edges"] == 6
        assert "modules_cached" not in stats  # every run is cold
