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

import pytest

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
# RPR002 — implicit dtype in matrix construction
# ---------------------------------------------------------------------------


def test_rpr002_flags_seeded_implicit_dtype(tmp_path):
    path = _write(
        tmp_path,
        "core/matrices.py",
        """
        import numpy as np

        def make(rows, cols):
            return np.zeros((rows, cols))
        """,
    )
    findings = [d for d in lint_file(path) if d.rule == "RPR002"]
    assert len(findings) == 1
    assert "dtype" in findings[0].message


def test_rpr002_quiet_when_dtype_pinned(tmp_path):
    path = _write(
        tmp_path,
        "core/matrices.py",
        """
        import numpy as np

        def make(rows, cols):
            return np.zeros((rows, cols), dtype=np.float64)
        """,
    )
    assert "RPR002" not in _rules_hit(path)


def test_rpr002_sees_from_import_and_alias(tmp_path):
    path = _write(
        tmp_path,
        "align/lanes.py",
        """
        import numpy as xp
        from numpy import full as mk_full

        a = xp.empty(4)
        b = mk_full(4, 0)
        """,
    )
    findings = [d for d in lint_file(path) if d.rule == "RPR002"]
    assert len(findings) == 2


def test_rpr002_skips_test_files(tmp_path):
    path = _write(
        tmp_path,
        "align/test_kernels.py",
        """
        import numpy as np

        expected = np.zeros(3)
        """,
    )
    assert "RPR002" not in _rules_hit(path)


# ---------------------------------------------------------------------------
# RPR004 — unseeded randomness in benchmarks/ and simulate/
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "snippet",
    [
        "import numpy as np\nx = np.random.rand(5)\n",
        "import numpy as np\nrng = np.random.default_rng()\n",
        "import random\nx = random.random()\n",
        "import random\nrng = random.Random()\n",
    ],
)
def test_rpr004_flags_seeded_unseeded_randomness(tmp_path, snippet):
    path = _write(tmp_path, "benchmarks/bench_x.py", snippet)
    assert "RPR004" in _rules_hit(path)


@pytest.mark.parametrize(
    "snippet",
    [
        "import numpy as np\nrng = np.random.default_rng(42)\nx = rng.random(5)\n",
        "import random\nrng = random.Random(42)\nx = rng.random()\n",
        "import random\nrandom.seed(7)\nx = random.random()\n",
    ],
)
def test_rpr004_quiet_when_seeded(tmp_path, snippet):
    path = _write(tmp_path, "simulate/model.py", snippet)
    assert "RPR004" not in _rules_hit(path)


def test_rpr004_scoped_to_benchmark_and_simulator_code(tmp_path):
    path = _write(tmp_path, "tools/scratch.py", "import random\nx = random.random()\n")
    assert "RPR004" not in _rules_hit(path)


# ---------------------------------------------------------------------------
# RPR006 — bare except
# ---------------------------------------------------------------------------


def test_rpr006_flags_seeded_bare_except(tmp_path):
    path = _write(
        tmp_path,
        "anywhere.py",
        """
        try:
            work()
        except:
            pass
        """,
    )
    findings = [d for d in lint_file(path) if d.rule == "RPR006"]
    assert len(findings) == 1


def test_rpr006_quiet_on_typed_except(tmp_path):
    path = _write(
        tmp_path,
        "anywhere.py",
        """
        try:
            work()
        except ValueError:
            pass
        """,
    )
    assert "RPR006" not in _rules_hit(path)


# ---------------------------------------------------------------------------
# RPR007 — absolute self-imports inside the package
# ---------------------------------------------------------------------------


def _package(tmp_path: Path) -> Path:
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("", encoding="utf-8")
    return pkg


@pytest.mark.parametrize(
    "snippet",
    [
        "import repro.core\n",
        "from repro.align import base\n",
        "from repro import scoring\n",
    ],
)
def test_rpr007_flags_seeded_absolute_self_import(tmp_path, snippet):
    pkg = _package(tmp_path)
    path = pkg / "mod.py"
    path.write_text(snippet, encoding="utf-8")
    assert "RPR007" in _rules_hit(path)


def test_rpr007_quiet_on_relative_imports(tmp_path):
    pkg = _package(tmp_path)
    path = pkg / "mod.py"
    path.write_text("from .core import tasks\nfrom . import scoring\n")
    assert "RPR007" not in _rules_hit(path)


def test_rpr007_quiet_outside_the_package(tmp_path):
    # Scripts/tests legitimately import the package absolutely.
    path = _write(tmp_path, "scripts/run.py", "import repro.core\n")
    assert "RPR007" not in _rules_hit(path)


# ---------------------------------------------------------------------------
# RPR008 — accidentally-quadratic list operations
# ---------------------------------------------------------------------------


def test_rpr008_flags_seeded_insert_front(tmp_path):
    path = _write(
        tmp_path,
        "anywhere.py",
        """
        def reorder(items):
            out = []
            for item in items:
                out.insert(0, item)
            return out
        """,
    )
    assert "RPR008" in _rules_hit(path)


def test_rpr008_flags_seeded_membership_on_list_in_loop(tmp_path):
    path = _write(
        tmp_path,
        "anywhere.py",
        """
        def dedup(items):
            seen = []
            for item in items:
                if item in seen:
                    continue
                seen.append(item)
            return seen
        """,
    )
    findings = [d for d in lint_file(path) if d.rule == "RPR008"]
    assert any("membership" in d.message for d in findings)


def test_rpr008_quiet_on_set_membership(tmp_path):
    path = _write(
        tmp_path,
        "anywhere.py",
        """
        def dedup(items):
            seen = set()
            for item in items:
                if item in seen:
                    continue
                seen.add(item)
            return sorted(seen)
        """,
    )
    assert "RPR008" not in _rules_hit(path)


def test_rpr008_does_not_leak_names_across_scopes(tmp_path):
    # `planted` is a list in one function and a set in another; the
    # set-using loop must not be flagged (regression: scope leak).
    path = _write(
        tmp_path,
        "anywhere.py",
        """
        def build():
            planted = [1, 2, 3]
            return set(planted)

        def scan(items):
            planted = build()
            for item in items:
                if item in planted:
                    yield item
        """,
    )
    assert "RPR008" not in _rules_hit(path)


# ---------------------------------------------------------------------------
# RPR000 + waiver mechanics
# ---------------------------------------------------------------------------


def test_rpr000_flags_waiver_without_reason(tmp_path):
    path = _write(
        tmp_path,
        "anywhere.py",
        """
        try:
            work()
        except:  # repro-lint: allow[RPR006]
            pass
        """,
    )
    rules = _rules_hit(path)
    assert "RPR000" in rules
    # A reasonless waiver does not suppress anything either.
    assert "RPR006" in rules


def test_rpr000_flags_allow_file_past_window(tmp_path):
    filler = "\n".join(f"x{i} = {i}" for i in range(20))
    path = _write(
        tmp_path,
        "anywhere.py",
        filler + "\n# repro-lint: allow-file[RPR006] too late to count\n",
    )
    assert "RPR000" in _rules_hit(path)


def test_allow_file_waives_whole_file(tmp_path):
    path = _write(
        tmp_path,
        "anywhere.py",
        """
        # repro-lint: allow-file[RPR006] exercising the file-level waiver
        try:
            a()
        except:
            pass
        try:
            b()
        except:
            pass
        """,
    )
    assert _rules_hit(path) == set()


def test_standalone_waiver_skips_comment_continuation_lines(tmp_path):
    path = _write(
        tmp_path,
        "anywhere.py",
        """
        try:
            work()
        # repro-lint: allow[RPR006] a justification long enough that it
        # wraps onto a second comment line before the handler
        except:
            pass
        """,
    )
    assert _rules_hit(path) == set()


def test_waiver_examples_in_docstrings_are_inert(tmp_path):
    path = _write(
        tmp_path,
        "anywhere.py",
        '''
        """Docs showing `# repro-lint: allow-file[RPR006]` as an example."""

        try:
            work()
        except:
            pass
        ''',
    )
    rules = _rules_hit(path)
    assert "RPR006" in rules  # the docstring mention waived nothing
    assert "RPR000" not in rules


def test_parse_waivers_collects_rules_and_targets():
    waivers = parse_waivers(
        "x = 1  # repro-lint: allow[RPR001, RPR008] two rules, one reason\n",
        "mem.py",
    )
    assert waivers.is_waived("RPR001", 1)
    assert waivers.is_waived("RPR008", 1)
    assert not waivers.is_waived("RPR006", 1)
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
# RPR012 — socket discipline in the cluster package
# ---------------------------------------------------------------------------

RAW_SOCKET_NODE = """
    import socket

    def dial(host, port):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.connect((host, port))
        return sock
"""

UNBOUNDED_RECV = """
    def pump(channel, listener):
        conn, addr = listener.accept()
        return channel.recv()
"""


def test_rpr012_flags_seeded_raw_socket(tmp_path):
    path = _write(tmp_path, "cluster/bad_dial.py", RAW_SOCKET_NODE)
    findings = [d for d in lint_file(path) if d.rule == "RPR012"]
    assert len(findings) == 1
    assert "transport" in findings[0].message


def test_rpr012_flags_seeded_unbounded_recv_and_accept(tmp_path):
    path = _write(tmp_path, "cluster/bad_pump.py", UNBOUNDED_RECV)
    findings = [d for d in lint_file(path) if d.rule == "RPR012"]
    assert len(findings) == 2
    assert {".accept", ".recv"} <= {d.message.split("(")[0] for d in findings}


def test_rpr012_quiet_when_timeout_passed(tmp_path):
    path = _write(
        tmp_path,
        "cluster/good_pump.py",
        """
        def pump(channel, listener):
            conn = listener.accept(timeout=0.5)
            return channel.recv(timeout=30.0)
        """,
    )
    assert "RPR012" not in _rules_hit(path)


def test_rpr012_exempts_the_transport_module(tmp_path):
    path = _write(tmp_path, "cluster/transport.py", RAW_SOCKET_NODE)
    assert "RPR012" not in _rules_hit(path)


def test_rpr012_scoped_to_cluster_dir(tmp_path):
    path = _write(tmp_path, "service/raw_dial.py", RAW_SOCKET_NODE)
    assert "RPR012" not in _rules_hit(path)


def test_rpr012_skips_test_files(tmp_path):
    path = _write(tmp_path, "cluster/test_dial.py", RAW_SOCKET_NODE)
    assert "RPR012" not in _rules_hit(path)


def test_rpr012_waivable_with_reason(tmp_path):
    path = _write(
        tmp_path,
        "cluster/probe.py",
        """
        import socket

        def probe(host):
            return socket.create_connection((host, 9410), timeout=1.0)  # repro-lint: allow[RPR012] liveness probe bypasses the channel layer
        """,
    )
    assert "RPR012" not in _rules_hit(path)


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
# RPR018 — direct spool-queue writes in repro.service bypass the gateway
# ---------------------------------------------------------------------------

DIRECT_QUEUE_WRITES = """
    def sneak_in(self, record):
        self.queue.submit(record.id, record.priority)

    def sneak_elsewhere(queue, job_id):
        queue.submit(job_id, 0)

    def sneak_via_service(service, job_id):
        service.spool_queue.submit(job_id, 0)
"""


def test_rpr018_flags_direct_queue_writes(tmp_path):
    path = _write(tmp_path, "service/server.py", DIRECT_QUEUE_WRITES)
    findings = [d for d in lint_file(path) if d.rule == "RPR018"]
    assert len(findings) == 3
    assert all("Gateway.submit" in d.message for d in findings)


def test_rpr018_quiet_on_gateway_mediated_submission(tmp_path):
    path = _write(
        tmp_path,
        "service/server.py",
        """
        def admit(self, payload, api_key=None):
            return self.gateway.submit(payload, api_key=api_key)

        def resubmit(client, spec):
            return client.submit(spec)  # HTTP client, not the spool
        """,
    )
    assert "RPR018" not in _rules_hit(path)


def test_rpr018_exempts_the_queue_module_itself(tmp_path):
    path = _write(tmp_path, "service/queue.py", DIRECT_QUEUE_WRITES)
    assert "RPR018" not in _rules_hit(path)


def test_rpr018_scoped_to_the_service_dir(tmp_path):
    path = _write(tmp_path, "gateway/admission.py", DIRECT_QUEUE_WRITES)
    assert "RPR018" not in _rules_hit(path)


def test_rpr018_skips_test_files(tmp_path):
    path = _write(tmp_path, "service/test_server.py", DIRECT_QUEUE_WRITES)
    assert "RPR018" not in _rules_hit(path)


def test_rpr018_waivable_with_reason(tmp_path):
    path = _write(
        tmp_path,
        "service/recovery.py",
        """
        def requeue_orphan(queue, job_id):
            queue.submit(job_id, 0)  # repro-lint: allow[RPR018] crash recovery replays a job the gateway already admitted
        """,
    )
    assert "RPR018" not in _rules_hit(path)


def test_rpr018_clean_on_the_real_service_package(tmp_path):
    package = Path(__file__).resolve().parents[2] / "src" / "repro" / "service"
    for module in sorted(package.glob("*.py")):
        assert "RPR018" not in _rules_hit(module), module.name


# ---------------------------------------------------------------------------
# RPR019 — prune discipline in align/ kernels
# ---------------------------------------------------------------------------

AD_HOC_THRESHOLD_EXIT = """
    def last_row(problem, min_score):
        best = 0.0
        for y, row in iter_rows(problem):
            best = max(best, row.max())
            if best < min_score:
                return None
        return row
"""


def test_rpr019_flags_seeded_ad_hoc_threshold_exit(tmp_path):
    path = _write(tmp_path, "align/bad_engine.py", AD_HOC_THRESHOLD_EXIT)
    findings = [d for d in lint_file(path) if d.rule == "RPR019"]
    assert len(findings) == 1
    assert "PruneGate" in findings[0].message


def test_rpr019_quiet_when_the_gate_is_consulted(tmp_path):
    path = _write(
        tmp_path,
        "align/good_engine.py",
        """
        def last_row(problem):
            gate = problem.prune
            cutoffs = gate.row_cutoffs() if gate is not None else None
            best = 0.0
            for y, row in iter_rows(problem):
                best = max(best, row.max())
                if cutoffs is not None and best <= cutoffs[y]:
                    gate.record_row_prune(y, best)
                    return None
            return row
        """,
    )
    assert "RPR019" not in _rules_hit(path)


def test_rpr019_ignores_identity_tests_and_plain_breaks(tmp_path):
    path = _write(
        tmp_path,
        "align/loop_engine.py",
        """
        def fill(problem, cutoffs, pending):
            for y, row in iter_rows(problem):
                if cutoffs is None:
                    continue
                if not pending:
                    break
            return row
        """,
    )
    assert "RPR019" not in _rules_hit(path)


def test_rpr019_scoped_to_align_and_skips_tests(tmp_path):
    outside = _write(tmp_path, "core/driver.py", AD_HOC_THRESHOLD_EXIT)
    assert "RPR019" not in _rules_hit(outside)
    testfile = _write(tmp_path, "align/test_engine.py", AD_HOC_THRESHOLD_EXIT)
    assert "RPR019" not in _rules_hit(testfile)


def test_rpr019_exempts_the_pruning_module_itself(tmp_path):
    path = _write(tmp_path, "align/pruning.py", AD_HOC_THRESHOLD_EXIT)
    assert "RPR019" not in _rules_hit(path)


def test_rpr019_waivable_with_reason(tmp_path):
    path = _write(
        tmp_path,
        "align/reference.py",
        """
        def reference_fill(problem, min_score):
            best = 0.0
            for y, row in iter_rows(problem):
                best = max(best, row.max())
                if best < min_score:  # repro-lint: allow[RPR019] reference kernel mirrors the unpruned paper recurrence
                    return None
            return row
        """,
    )
    assert "RPR019" not in _rules_hit(path)


def test_rpr019_clean_on_the_real_align_package(tmp_path):
    package = Path(__file__).resolve().parents[2] / "src" / "repro" / "align"
    for module in sorted(package.glob("*.py")):
        assert "RPR019" not in _rules_hit(module), module.name


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
