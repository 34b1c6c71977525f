"""Program-graph construction checked against golden fixture graphs."""

import json

from repro.analysis.graph import module_name_for
from repro.analysis.linter import analyze_paths
from repro.analysis.linter import main as lint_main

from .conftest import FIXTURES

GOLDEN = FIXTURES / "minipkg_graph.json"


def build(minipkg):
    return analyze_paths([str(minipkg)])


class TestModuleNames:
    def test_walks_init_chain(self, minipkg):
        assert module_name_for(str(minipkg / "server.py")) == "minipkg.server"
        assert module_name_for(str(minipkg / "__init__.py")) == "minipkg"

    def test_bare_file_is_its_stem(self, tmp_path):
        lone = tmp_path / "standalone.py"
        lone.write_text("x = 1\n")
        assert module_name_for(str(lone)) == "standalone"


class TestGoldenGraphs:
    def test_call_graph_matches_golden(self, minipkg):
        graph = build(minipkg).graph
        assert graph.to_dict() == json.loads(GOLDEN.read_text())


class TestQueries:
    def test_callers_and_callees(self, minipkg):
        graph = build(minipkg).graph
        helper = "minipkg.server:_tail_wait"
        entry = "minipkg.server:RequestHandler.do_fetch"
        assert helper in {callee for callee, _ in graph.callees(entry)}
        assert entry in {caller for caller, _ in graph.callers(helper)}

    def test_find_nodes_by_suffix(self, minipkg):
        graph = build(minipkg).graph
        assert graph.find_nodes("do_fetch") == [
            "minipkg.server:RequestHandler.do_fetch"
        ]

    def test_reachable_and_path(self, minipkg):
        graph = build(minipkg).graph
        start = "minipkg.server:RequestHandler.do_fetch"
        parents = graph.reachable(start)
        target = "minipkg.worker:_check"
        assert target in parents
        assert graph.path_to(start, target, parents) == [
            start, "minipkg.worker:execute", target
        ]

    def test_reverse_import_closure(self, minipkg):
        graph = build(minipkg).graph
        reverse = graph.reverse_import_closure(["minipkg.worker"])
        assert reverse == {"minipkg.worker", "minipkg.server"}

    def test_stats_counts(self, minipkg):
        stats = build(minipkg).graph.stats()
        assert stats == {"modules": 3, "functions": 9, "call_edges": 6}


class TestGraphCli:
    def test_callers_query(self, minipkg, capsys):
        code = lint_main(["--graph", "callers", "_tail_wait", str(minipkg)])
        assert code == 0
        assert "RequestHandler.do_fetch" in capsys.readouterr().out

    def test_callees_query(self, minipkg, capsys):
        lint_main(["--graph", "callees", "execute", str(minipkg)])
        assert "minipkg.worker:_check" in capsys.readouterr().out

    def test_retired_locks_query_is_a_usage_error(self, minipkg, capsys):
        code = lint_main(["--graph", "locks", "all", str(minipkg)])
        assert code == 2
        assert "callers|callees" in capsys.readouterr().err

    def test_unknown_symbol_exits_two(self, minipkg, capsys):
        code = lint_main(["--graph", "callers", "no_such_fn", str(minipkg)])
        assert code == 2
        capsys.readouterr()
