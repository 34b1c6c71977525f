"""Seeded-violation coverage for the interprocedural rule RPR013."""

import shutil

from repro.analysis.linter import analyze_paths, collect_files

from .conftest import FIXTURES


def findings_for(minipkg, rule):
    found = analyze_paths([str(minipkg)]).findings
    return sorted(
        (f for f in found if f.rule == rule), key=lambda f: (f.path, f.line)
    )


class TestBlockingReachability:
    def test_handler_reaching_sleep_through_helper(self, minipkg):
        hits = findings_for(minipkg, "RPR013")
        handler = [f for f in hits if f.path.endswith("server.py")]
        assert len(handler) == 1
        assert "do_fetch" in handler[0].message
        assert "time.sleep" in handler[0].message
        # The sink is in _tail_wait, not the entry — only the call
        # graph can see this, and the trace spells out the chain.
        assert any("_tail_wait" in step for step in handler[0].trace)

    def test_lease_path_with_direct_sink(self, minipkg):
        hits = findings_for(minipkg, "RPR013")
        lease = [f for f in hits if f.path.endswith("worker.py")]
        assert len(lease) == 1
        assert "run_lease" in lease[0].message

    def test_sink_waiver_suppresses_whole_path(self, minipkg):
        server = minipkg / "server.py"
        waived = server.read_text().replace(
            "time.sleep(0.5)",
            "time.sleep(0.5)  # repro-lint: allow[RPR013] seeded",
        )
        server.write_text(waived)
        hits = findings_for(minipkg, "RPR013")
        assert [f.path.endswith("worker.py") for f in hits] == [True]


class TestScoping:
    def test_test_paths_are_exempt(self, tmp_path):
        # The same seeded package under a tests/ component: the
        # interprocedural rule must stay silent.
        dst = tmp_path / "tests" / "minipkg"
        shutil.copytree(FIXTURES / "minipkg", dst)
        found = analyze_paths([str(dst)]).findings
        assert not [f for f in found if f.rule == "RPR013"]

    def test_fixture_dir_is_never_collected(self):
        assert collect_files([FIXTURES]) == []

    def test_seeded_package_fires_nothing_else_unexpected(self, minipkg):
        rules = {f.rule for f in analyze_paths([str(minipkg)]).findings}
        assert rules == {"RPR013"}
