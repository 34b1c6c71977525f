"""The one file primitive (:mod:`repro.durable`), and a fault sweep over
every store that reads and writes through it.

The sweep runs one small job through the service in process twice over
(admission with an idempotency key, a run suspended after its first
chunk and resumed from its checkpoint, the result, an index build and
load; then a restart that recovers, replays the key and serves the
result again), with :class:`tests.faults.FaultyDisk` damaging one drawn
call to the primitive.  Whatever the fault, no exception but the
injected ``OSError`` escapes (what ``repro serve`` answers 500 naming),
no temp file survives, every file reads as its last complete value or
as missing, a ``done`` record has its result, a failed job records its
cause, and every served result is the uninjected run's.

One damage stays undetectable: a flipped bit that still parses as JSON
in a result or index file.  The formats carry no checksum, so the
sweep allows a wrong value exactly where such a flip landed.
"""

from __future__ import annotations

import errno
import functools
import json
import os
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import durable
from repro.index import IndexConfig, IndexStore
from repro.sequences import Sequence, pseudo_titin
from repro.service import JobState
from repro.service.metrics import render_service_metrics
from repro.service.server import ReproService, ServiceConfig
from repro.service.workers import WorkerStats, _run_claimed, recover

from .faults import KINDS, Fault, FaultyDisk

SPEC = {"sequence": pseudo_titin(40, seed=5).text, "top_alignments": 3}
SEQUENCE = Sequence(SPEC["sequence"], "protein", id="s")
KEY = "retry-me"


class TestAtomicWrite:
    def test_writes_bytes_and_callbacks(self, tmp_path):
        target = tmp_path / "f.json"
        durable.atomic_write(target, b'{"a": 1}')
        assert durable.read_json(target) == {"a": 1}
        durable.atomic_write(target, lambda fh: fh.write(b"[2]"))
        assert durable.read_json(target) == [2]
        assert os.listdir(tmp_path) == ["f.json"]

    def test_a_failed_write_keeps_the_old_file_and_no_temp(self, tmp_path, monkeypatch):
        target = tmp_path / "f.json"
        durable.atomic_write(target, b"[1]")

        def full(fh):
            fh.write(b"[2")
            raise OSError(errno.ENOSPC, "full")

        with pytest.raises(OSError):
            durable.atomic_write(target, full)

        def no_replace(*args):
            raise OSError(errno.EIO, "rename failed")

        monkeypatch.setattr(os, "replace", no_replace)
        with pytest.raises(OSError):
            durable.atomic_write(target, b"[3]")
        assert os.listdir(tmp_path) == ["f.json"]
        assert durable.read_json(target) == [1]


class TestReadJson:
    def test_absent_or_unreadable_is_missing_and_left_alone(self, tmp_path):
        assert durable.read_json(tmp_path / "absent.json") is None
        (tmp_path / "dir.json").mkdir()
        assert durable.read_json(tmp_path / "dir.json") is None
        assert (tmp_path / "dir.json").is_dir()

    @pytest.mark.parametrize(
        "damage", [b"", b'{"torn', b"\xff{}", b"\xef\xbb\xbf{}", b"{}x"]
    )
    def test_damaged_bytes_are_missing_and_removed(self, tmp_path, damage):
        path = tmp_path / "f.json"
        path.write_bytes(damage)
        assert durable.read_json(path) is None
        assert not path.exists()


# -- the fault sweep -----------------------------------------------------


class _Run:
    """What one drive of the service saw."""

    def __init__(self, disk: FaultyDisk) -> None:
        self.disk = disk
        self.served: list[dict] = []
        self.profiles: list[dict] = []
        self.jobs: set[str] = set()

    def step(self, fn, *args, **kwargs):
        """``fn(...)``, or ``None`` when it raised the injected error."""
        try:
            return fn(*args, **kwargs)
        except OSError as exc:
            # The cause, unchanged: what the HTTP layer names in its 500.
            assert exc is self.disk.raised, exc
            return None

    def work(self, svc: ReproService) -> None:
        """The worker loop over the spool; the first job run is
        suspended after its first chunk, so a resume reads its checkpoint."""
        checks = iter(range(1_000))
        stats = WorkerStats()
        for _ in range(10):
            job_id = svc.queue.claim()
            if job_id is None:
                return
            self.jobs.add(job_id)
            self.step(
                _run_claimed, svc.store, svc.queue, svc.cache, job_id, "w",
                stats=stats, should_stop=lambda: next(checks) == 1,
            )
            self.step(svc.store.write_worker_stats, "w", asdict(stats))
        raise AssertionError("the spool never drained")

    def serve(self, svc: ReproService) -> None:
        for job_id in sorted(self.jobs):
            payload = svc.result(job_id)
            if payload is not None:
                self.served.append(payload)

    def index(self, root: Path) -> None:
        for _ in range(2):
            store = IndexStore(root / "index")
            built = self.step(store.build_or_load, SEQUENCE, IndexConfig())
            if built is not None:
                self.profiles.append(built[0].to_dict())


def _drive(root: Path, disk: FaultyDisk) -> _Run:
    run = _Run(disk)
    config = ServiceConfig(data_dir=str(root), port=0, workers=0)
    svc = ReproService(config)
    admission = run.step(svc.admit, dict(SPEC), idempotency_key=KEY)
    if admission is not None:
        run.jobs.add(admission.record.id)
    run.work(svc)
    run.serve(svc)
    run.index(root)

    svc = ReproService(config)  # a restart on the same data directory
    run.step(recover, svc.store, svc.queue)
    run.step(svc.gateway.recover)
    admission = run.step(svc.admit, dict(SPEC), idempotency_key=KEY)
    if admission is not None:
        run.jobs.add(admission.record.id)
    run.step(render_service_metrics, svc)
    run.serve(svc)  # a done job whose result is gone is spooled again
    run.work(svc)
    run.serve(svc)
    run.index(root)
    return run


def _result(payload: dict) -> str:
    return json.dumps(
        {key: payload[key] for key in ("top_alignments", "repeats")}, sort_keys=True
    )


@functools.cache
def _baseline() -> tuple[int, str, str]:
    """Primitive calls, served result and index profile of a clean drive."""
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as mp:
        run = _drive(Path(root), FaultyDisk().install(mp))
    assert run.served and run.profiles
    results = {_result(payload) for payload in run.served}
    profiles = {json.dumps(p, sort_keys=True) for p in run.profiles}
    assert len(results) == len(profiles) == 1
    return run.disk.calls, results.pop(), profiles.pop()


def _check(root: Path, run: _Run) -> None:
    disk, fault = run.disk, run.disk.fault
    _calls, result, profile = _baseline()
    flipped = disk.hit[1] if disk.hit is not None and fault.kind == "flip" else None

    assert not list(root.rglob("*.tmp"))
    for path, data in disk.written.items():
        if path.endswith(".json") and path != flipped:
            assert durable.read_json(path) in (None, json.loads(data)), path

    svc = ReproService(ServiceConfig(data_dir=str(root), workers=0))
    for payload in run.served:
        if _result(payload) != result:
            assert flipped == os.fspath(svc.cache.path_for(payload["digest"]))
    for served in run.profiles:
        if json.dumps(served, sort_keys=True) != profile:
            assert flipped is not None and flipped.startswith(str(root / "index"))
    for job_id in svc.store.list_ids():
        record = svc.store.get(job_id)
        if record is None:
            continue
        if record.state == JobState.DONE:
            assert svc.cache.get(record.digest) is not None, job_id
        if record.state == JobState.FAILED:
            events = svc.store.read_events(job_id)
            assert events[-1]["event"] == "failed" and events[-1]["error"]
            if disk.raised is not None:
                assert disk.raised.strerror in record.error
            else:  # a flipped spec that no longer hashes to its digest
                assert fault.kind == "flip" and disk.hit[1].endswith(f"{job_id}.json")


@pytest.mark.parametrize("kind", KINDS)
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_one_fault_anywhere_never_serves_a_wrong_result(kind, data):
    calls = _baseline()[0]
    fault = Fault(
        call=data.draw(st.integers(0, calls - 1), label="call"),
        kind=kind,
        at=data.draw(st.integers(0, 1 << 20), label="at"),
        bit=data.draw(st.integers(0, 7), label="bit"),
    )
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        root = Path(tmp)
        run = _drive(root, FaultyDisk(fault).install(mp))
        mp.undo()
        assert run.disk.hit is not None
        _check(root, run)
