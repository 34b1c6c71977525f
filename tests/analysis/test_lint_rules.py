"""Seeded-violation tests for the per-file lint rules.

Every rule must (a) flag a file with a deliberately planted violation
and (b) stay quiet on the compliant twin — no always-green and no
always-red checkers.  Files are written under ``tmp_path`` in directory
layouts that match each rule's scoping (``align/``, ``benchmarks/``,
a ``repro`` package, ...).
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import lint_file
from repro.analysis.diagnostics import parse_waivers


def _write(tmp_path: Path, relpath: str, source: str) -> Path:
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


def _rules_hit(path: Path) -> set[str]:
    return {d.rule for d in lint_file(path)}


# ---------------------------------------------------------------------------
# RPR001 — per-cell loops in align/ kernels
# ---------------------------------------------------------------------------

PER_CELL_LOOP = """
    def kernel(M, E, rows, cols):
        for y in range(1, rows):
            for x in range(1, cols):
                M[y][x] = max(0.0, E[y][x] + M[y - 1][x - 1])
"""


def test_rpr001_flags_seeded_per_cell_loop(tmp_path):
    path = _write(tmp_path, "align/bad_kernel.py", PER_CELL_LOOP)
    findings = [d for d in lint_file(path) if d.rule == "RPR001"]
    assert len(findings) == 1
    assert findings[0].line == 4  # the inner for


def test_rpr001_scoped_to_align_dir(tmp_path):
    path = _write(tmp_path, "io/bad_kernel.py", PER_CELL_LOOP)
    assert "RPR001" not in _rules_hit(path)


def test_rpr001_ignores_row_vectorised_loops(tmp_path):
    path = _write(
        tmp_path,
        "align/good_kernel.py",
        """
        import numpy as np

        def kernel(M, E, rows):
            for y in range(1, rows):
                M[y, 1:] = np.maximum(0.0, E[y] + M[y - 1, :-1])
        """,
    )
    assert "RPR001" not in _rules_hit(path)


def test_rpr001_waivable_with_reason(tmp_path):
    path = _write(
        tmp_path,
        "align/reference.py",
        """
        def kernel(M, E, rows, cols):
            for y in range(1, rows):
                # repro-lint: allow[RPR001] reference implementation on purpose
                for x in range(1, cols):
                    M[y][x] = max(0.0, E[y][x] + M[y - 1][x - 1])
        """,
    )
    assert _rules_hit(path) == set()


# ---------------------------------------------------------------------------
# RPR000 + waiver mechanics
# ---------------------------------------------------------------------------


def test_rpr000_flags_waiver_without_reason(tmp_path):
    path = _write(
        tmp_path,
        "core/anywhere.py",
        """
        import time

        stamp = time.time()  # repro-lint: allow[RPR011]
        """,
    )
    rules = _rules_hit(path)
    assert "RPR000" in rules
    # A reasonless waiver does not suppress anything either.
    assert "RPR011" in rules


def test_rpr000_flags_allow_file_past_window(tmp_path):
    filler = "\n".join(f"x{i} = {i}" for i in range(20))
    path = _write(
        tmp_path,
        "anywhere.py",
        filler + "\n# repro-lint: allow-file[RPR011] too late to count\n",
    )
    assert "RPR000" in _rules_hit(path)


def test_allow_file_waives_whole_file(tmp_path):
    path = _write(
        tmp_path,
        "core/anywhere.py",
        """
        # repro-lint: allow-file[RPR011] exercising the file-level waiver
        import time

        first = time.time()
        second = time.time()
        """,
    )
    assert _rules_hit(path) == set()


def test_standalone_waiver_skips_comment_continuation_lines(tmp_path):
    path = _write(
        tmp_path,
        "core/anywhere.py",
        """
        import time

        # repro-lint: allow[RPR011] a justification long enough that it
        # wraps onto a second comment line before the statement
        stamp = time.time()
        """,
    )
    assert _rules_hit(path) == set()


def test_waiver_examples_in_docstrings_are_inert(tmp_path):
    path = _write(
        tmp_path,
        "core/anywhere.py",
        '''
        """Docs showing `# repro-lint: allow-file[RPR011]` as an example."""

        import time

        stamp = time.time()
        ''',
    )
    rules = _rules_hit(path)
    assert "RPR011" in rules  # the docstring mention waived nothing
    assert "RPR000" not in rules


def test_parse_waivers_collects_rules_and_targets():
    waivers = parse_waivers(
        "x = 1  # repro-lint: allow[RPR001, RPR011] two rules, one reason\n",
        "mem.py",
    )
    assert waivers.is_waived("RPR001", 1)
    assert waivers.is_waived("RPR011", 1)
    assert not waivers.is_waived("RPR010", 1)
    assert not waivers.problems


def test_syntax_error_reported_not_raised(tmp_path):
    path = _write(tmp_path, "broken.py", "def f(:\n")
    findings = lint_file(path)
    assert [d.rule for d in findings] == ["RPR000"]
    assert "syntax error" in findings[0].message


# ---------------------------------------------------------------------------
# RPR010 — blocking calls in service request-handling paths
# ---------------------------------------------------------------------------

SLEEPING_HANDLER = """
    import time
    from http.server import BaseHTTPRequestHandler

    class Api(BaseHTTPRequestHandler):
        def do_GET(self):
            time.sleep(5)
"""


def test_rpr010_flags_sleep_in_do_method(tmp_path):
    path = _write(tmp_path, "service/bad_server.py", SLEEPING_HANDLER)
    findings = [d for d in lint_file(path) if d.rule == "RPR010"]
    assert len(findings) == 1
    assert "time.sleep" in findings[0].message


def test_rpr010_scoped_to_service_dir(tmp_path):
    path = _write(tmp_path, "core/bad_server.py", SLEEPING_HANDLER)
    assert "RPR010" not in _rules_hit(path)


def test_rpr010_flags_every_method_of_a_handler_class(tmp_path):
    path = _write(
        tmp_path,
        "service/helper.py",
        """
        from time import sleep

        class Api(SomeRequestHandler):
            def _stream(self):
                sleep(0.1)
        """,
    )
    assert "RPR010" in _rules_hit(path)


def test_rpr010_flags_unbounded_queue_get(tmp_path):
    path = _write(
        tmp_path,
        "service/consumer.py",
        """
        def handle_request(job_queue):
            return job_queue.get()
        """,
    )
    findings = [d for d in lint_file(path) if d.rule == "RPR010"]
    assert len(findings) == 1
    assert "Queue.get" in findings[0].message


def test_rpr010_allows_bounded_queue_get(tmp_path):
    path = _write(
        tmp_path,
        "service/consumer.py",
        """
        def handle_request(job_queue):
            a = job_queue.get(timeout=1.0)
            b = job_queue.get(block=False)
            return a or b
        """,
    )
    assert "RPR010" not in _rules_hit(path)


def test_rpr010_ignores_non_handler_code(tmp_path):
    path = _write(
        tmp_path,
        "service/worker_loop.py",
        """
        import time

        def poll_forever(queue):
            while True:
                time.sleep(0.05)  # worker poll loop, not a request path

        def lookup(mapping):
            return mapping.get()
        """,
    )
    assert "RPR010" not in _rules_hit(path)


def test_rpr010_waivable_with_reason(tmp_path):
    path = _write(
        tmp_path,
        "service/stream.py",
        """
        import time

        class Api(BaseHTTPRequestHandler):
            def do_GET(self):
                time.sleep(0.1)  # repro-lint: allow[RPR010] bounded tail poll with deadline
        """,
    )
    assert "RPR010" not in _rules_hit(path)


# ---------------------------------------------------------------------------
# RPR011 — wall-clock time.time() in instrumented performance paths


def test_rpr011_flags_wall_clock_in_core(tmp_path):
    path = _write(
        tmp_path,
        "core/timing.py",
        """
        import time

        def measure(fn):
            start = time.time()
            fn()
            return time.time() - start
        """,
    )
    assert "RPR011" in _rules_hit(path)


def test_rpr011_quiet_on_perf_counter(tmp_path):
    path = _write(
        tmp_path,
        "core/timing.py",
        """
        import time

        def measure(fn):
            start = time.perf_counter()
            fn()
            return time.perf_counter() - start
        """,
    )
    assert "RPR011" not in _rules_hit(path)


def test_rpr011_flags_from_import_alias(tmp_path):
    path = _write(
        tmp_path,
        "align/clock.py",
        """
        from time import time as now

        def stamp():
            return now()
        """,
    )
    assert "RPR011" in _rules_hit(path)


def test_rpr011_scoped_outside_instrumented_dirs(tmp_path):
    path = _write(
        tmp_path,
        "service/jobstore.py",
        """
        import time

        def created_at():
            return time.time()  # epoch timestamp on the job record
        """,
    )
    assert "RPR011" not in _rules_hit(path)


def test_rpr011_waivable_with_reason(tmp_path):
    path = _write(
        tmp_path,
        "bench/report.py",
        """
        import time

        def report_header():
            return time.time()  # repro-lint: allow[RPR011] epoch stamp in the report header
        """,
    )
    assert "RPR011" not in _rules_hit(path)


# ---------------------------------------------------------------------------
# RPR017 — align/ imports banned inside the repro.index layer
# ---------------------------------------------------------------------------

INDEX_ALIGN_IMPORTS = """
    import repro.align
    from repro.align import AlignmentProblem
    from repro.align.engine import VectorEngine
    from ..align import full_matrix
    from .. import align
"""


def test_rpr017_flags_seeded_align_imports(tmp_path):
    path = _write(tmp_path, "index/bad_routing.py", INDEX_ALIGN_IMPORTS)
    findings = [d for d in lint_file(path) if d.rule == "RPR017"]
    assert len(findings) == 5
    assert all("repro.index layer" in d.message for d in findings)


def test_rpr017_quiet_on_scoring_imports(tmp_path):
    path = _write(
        tmp_path,
        "index/good_routing.py",
        """
        from ..scoring.exchange import ExchangeMatrix
        from ..sequences.sequence import Sequence
        from . import kmer
        """,
    )
    assert "RPR017" not in _rules_hit(path)


def test_rpr017_scoped_to_index_dir(tmp_path):
    path = _write(tmp_path, "core/uses_align.py", INDEX_ALIGN_IMPORTS)
    assert "RPR017" not in _rules_hit(path)


def test_rpr017_skips_test_files(tmp_path):
    path = _write(tmp_path, "index/test_routing.py", INDEX_ALIGN_IMPORTS)
    assert "RPR017" not in _rules_hit(path)


def test_rpr017_waivable_with_reason(tmp_path):
    path = _write(
        tmp_path,
        "index/probe.py",
        """
        from ..align import AlignmentProblem  # repro-lint: allow[RPR017] offline calibration helper, never on the routing path
        """,
    )
    assert "RPR017" not in _rules_hit(path)


def test_rpr017_clean_on_the_real_index_package(tmp_path):
    package = Path(__file__).resolve().parents[2] / "src" / "repro" / "index"
    for module in sorted(package.glob("*.py")):
        assert "RPR017" not in _rules_hit(module), module.name


SIMULATE_IMPORTS = """
    import repro.simulate
    from repro.simulate.cluster import ClusterSimulator
    from ..simulate import AlignmentOracle
    from .. import simulate
"""


def _package_file(tmp_path, relpath, source):
    """A module inside a package directory named ``repro``."""
    _write(tmp_path, "repro/__init__.py", "")
    return _write(tmp_path, f"repro/{relpath}", source)


def test_rpr017_flags_simulate_imports_anywhere_in_the_package(tmp_path):
    path = _package_file(tmp_path, "service/uses_sim.py", SIMULATE_IMPORTS)
    findings = [d for d in lint_file(path) if d.rule == "RPR017"]
    assert len(findings) == 4
    assert all("figure code" in d.message for d in findings)
    # A module of repro/ itself reaches the package root with one dot.
    top = _package_file(tmp_path, "cli.py", "from .simulate import pentium3\n")
    assert [d.rule for d in lint_file(top) if d.rule == "RPR017"] == ["RPR017"]


def test_rpr017_simulate_row_spares_simulate_itself_and_outsiders(tmp_path):
    inside = _package_file(tmp_path, "simulate/sweep.py", "from ..simulate import x\n")
    assert "RPR017" not in _rules_hit(inside)
    outside = _write(tmp_path, "benchmarks/figures.py", "import repro.simulate\n")
    assert "RPR017" not in _rules_hit(outside)


def test_rpr017_nothing_under_src_repro_imports_simulate():
    package = Path(__file__).resolve().parents[2] / "src" / "repro"
    for module in sorted(package.rglob("*.py")):
        assert "RPR017" not in _rules_hit(module), module


# ---------------------------------------------------------------------------
# RPR020 — align/ imports banned inside the repro.annot layer
# ---------------------------------------------------------------------------

ANNOT_ALIGN_IMPORTS = """
    import repro.align
    from repro.align import AlignmentProblem
    from repro.align.engine import VectorEngine
    from ..align import full_matrix
    from .. import align
"""


def test_rpr020_flags_seeded_align_imports(tmp_path):
    path = _write(tmp_path, "annot/bad_renderer.py", ANNOT_ALIGN_IMPORTS)
    findings = [d for d in lint_file(path) if d.rule == "RPR020"]
    assert len(findings) == 5
    assert all("repro.annot layer" in d.message for d in findings)


def test_rpr020_quiet_on_core_model_imports(tmp_path):
    path = _write(
        tmp_path,
        "annot/good_renderer.py",
        """
        from ..core.report import FamilyModel, extract_families
        from ..core.result import RepeatResult
        from .tracks import build_track
        """,
    )
    assert "RPR020" not in _rules_hit(path)


def test_rpr020_scoped_to_annot_dir(tmp_path):
    path = _write(tmp_path, "core/uses_align.py", ANNOT_ALIGN_IMPORTS)
    assert "RPR020" not in _rules_hit(path)


def test_rpr020_skips_test_files(tmp_path):
    path = _write(tmp_path, "annot/test_renderer.py", ANNOT_ALIGN_IMPORTS)
    assert "RPR020" not in _rules_hit(path)


def test_rpr020_waivable_with_reason(tmp_path):
    path = _write(
        tmp_path,
        "annot/probe.py",
        """
        from ..align import AlignmentProblem  # repro-lint: allow[RPR020] offline debugging helper, never on a render path
        """,
    )
    assert "RPR020" not in _rules_hit(path)


def test_rpr020_clean_on_the_real_annot_package(tmp_path):
    package = Path(__file__).resolve().parents[2] / "src" / "repro" / "annot"
    for module in sorted(package.glob("*.py")):
        assert "RPR020" not in _rules_hit(module), module.name
