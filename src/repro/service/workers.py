"""The worker pool and the resumable job executor.

Workers are separate OS processes (spawned, not forked — the server
process carries HTTP threads) that share nothing with the server except
the data directory: they claim jobs from the spool queue, execute them
incrementally, and publish results into the content-addressed cache.

Execution is *incremental*: the worker accepts one top alignment at a
time on one live session and appends a ``progress`` event after each,
but writes an atomic checkpoint (:mod:`repro.core.checkpoint`), and the
record's ``found`` with it, only once :data:`CHECKPOINT_SECONDS` have
passed since the job started or last checkpointed.  That one structure
buys all three durability features:

* **streaming progress** — each acceptance appends a ``progress`` line
  that ``GET /jobs/<id>/events`` tails;
* **graceful drain** — on SIGTERM the worker finishes the acceptance in
  flight, checkpoints, releases the job back to the queue and exits;
* **crash resume** — after SIGKILL the stranded claim is requeued by
  :func:`recover` and the next worker restores the last checkpoint, so
  at most :data:`CHECKPOINT_SECONDS` of accepted work, plus the
  acceptance in flight, is repaid.  Resumed runs return the same
  alignments and repeat families as uninterrupted ones (the repo-wide
  equivalence guarantee); only the work counters in ``stats`` differ.

Before aligning anything, a worker probes the result cache: a duplicate
of an already-finished job is answered with zero alignment work, which
the per-worker counters published via the job store make auditable.

**The hand-off.**  Nobody waits on a clock.  :class:`WorkerPool` gives
each worker two pipes: the server writes one byte to every worker's
*wake* pipe after each spool marker it writes, and an idle worker parks
on its pipe; a worker writes the job id to its *report* pipe after each
event it appends (every lifecycle transition and every acceptance
appends one), and one reader thread in the server hands those to a
callback.  Plain pipes, not ``multiprocessing`` locks or events: a
SIGKILLed worker can die holding a lock, but its pipes just close.  A
parked worker still rescans the spool every ``poll_interval`` for the
markers nobody signals: a requeue by :func:`recover`, a draining
worker's release, a spool written by another process.
"""

from __future__ import annotations

import multiprocessing
import os
import select
import signal
import sys
import threading
import time
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable

from ..core.api import RepeatFinder
from ..core.result import RepeatResult
from ..obs import span as obs_span
from ..sequences.sequence import Sequence
from .cache import ResultCache
from .jobstore import JobRecord, JobStore
from .protocol import JobSpec, JobState, finder_for, job_digest, result_to_dict
from .queue import SpoolQueue

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

__all__ = [
    "WorkerPool",
    "WorkerStats",
    "execute_job",
    "finish_job",
    "open_stores",
    "recover",
    "worker_main",
]

#: Test/ops knob: extra seconds slept after each acceptance, so a run
#: can be made arbitrarily slow without changing its results (used by
#: the kill/resume tests to guarantee a mid-job signal lands).
CHUNK_DELAY_ENV = "REPRO_SERVICE_CHUNK_DELAY"

#: Wall time a running job goes without a checkpoint: one per acceptance
#: cost a 20 ms job a third of its run, and a job this short writes none.
CHECKPOINT_SECONDS = 0.25


def open_stores(
    data_dir: str | os.PathLike, *, capacity: int = 64, memory_items: int = 64
) -> tuple[JobStore, SpoolQueue, ResultCache]:
    """The three shared stores under one service data directory."""
    root = os.fspath(data_dir)
    store = JobStore(root)
    queue = SpoolQueue(os.path.join(root, "spool"), capacity=capacity)
    cache = ResultCache(os.path.join(root, "cache"), memory_items=memory_items)
    return store, queue, cache


@dataclass
class WorkerStats:
    """Counters one worker publishes through the job store."""

    pid: int = 0
    jobs_done: int = 0
    jobs_failed: int = 0
    jobs_cancelled: int = 0
    jobs_suspended: int = 0
    cache_hits: int = 0
    alignments: int = 0
    cells: int = 0
    updated: float = 0.0


def recover(store: JobStore, queue: SpoolQueue) -> list[str]:
    """Requeue jobs stranded by dead workers (call before a pool starts).

    Claimed spool markers go back to the queue and their records flip
    ``running → queued``; checkpoints are kept, so the re-run resumes
    instead of restarting.  The marker of a job that is finished, or
    whose record is gone, is dropped instead: its worker ended between
    the last record write and dropping the marker.  Returns the ids of
    the jobs requeued.
    """
    requeued = []
    for job_id in queue.recover():
        record = store.get(job_id)
        if record is None or record.terminal:
            queue.discard(job_id)
            continue
        store.update(job_id, state=JobState.QUEUED, worker="")
        store.append_event(job_id, "requeued", reason="worker lost")
        requeued.append(job_id)
    return requeued


def finish_job(store: JobStore, record: JobRecord, result: RepeatResult) -> None:
    """Mark the job done; ``result`` is already cached under its digest."""
    store.finish(
        record.id,
        JobState.DONE,
        found=len(result.top_alignments),
        error="",
        event_data={
            "digest": record.digest,
            "found": len(result.top_alignments),
            "alignments": result.stats.alignments,
        },
    )


def execute_job(
    store: JobStore,
    cache: ResultCache,
    record: JobRecord,
    *,
    should_stop: Callable[[], bool] | None = None,
    chunk_delay: float = 0.0,
    stats: WorkerStats | None = None,
    publish: Callable[[], None] = lambda: None,
) -> str:
    """Run one claimed job to a terminal (or suspended) state.

    Returns the outcome: ``"done"``, ``"failed"``, ``"cancelled"`` or
    ``"suspended"`` (graceful stop — checkpointed, caller must release
    the claim back to the queue).  ``stats`` counts the outcome and
    ``publish`` runs before the record write that makes it terminal, so
    whoever sees the job finished also sees it in the counters.
    """
    should_stop = should_stop or (lambda: False)
    stats = stats if stats is not None else WorkerStats()
    job_id = record.id
    try:
        spec = JobSpec.from_dict(record.spec)
        if job_digest(spec) != record.digest:
            # A damaged record: its result would be cached under the
            # digest of another spec.
            raise ValueError("the job's spec does not hash to its digest")
    except ValueError as exc:
        _fail(store, job_id, exc)
        return "failed"

    # A duplicate of a finished job is served straight from the cache —
    # zero alignment work, visible in the worker counters.
    cached = cache.get(record.digest)
    if cached is not None:
        stats.cache_hits += 1
        publish()
        store.finish(
            job_id,
            JobState.DONE,
            event="cache-hit",
            event_data={"digest": record.digest},
            served_from_cache=True,
            found=len(cached.get("top_alignments", ())),
        )
        return "done"

    if store.cancel_requested(job_id):
        stats.jobs_cancelled += 1
        publish()
        store.finish(job_id, JobState.CANCELLED)
        return "cancelled"

    try:
        finder = finder_for(spec)
        sequence = Sequence(
            spec.normalized_sequence(), spec.alphabet, id=spec.seq_id
        )
        with obs_span("execute_job", job=job_id, k=spec.top_alignments):
            result = _run_incremental(
                store,
                finder,
                sequence,
                spec,
                job_id,
                should_stop=should_stop,
                chunk_delay=chunk_delay,
            )
            if result is None:
                outcome = "cancelled" if store.cancel_requested(job_id) else "suspended"
                if outcome == "cancelled":
                    stats.jobs_cancelled += 1
                    publish()
                    store.finish(job_id, JobState.CANCELLED)
                else:
                    refreshed = store.get(job_id)
                    store.append_event(
                        job_id,
                        "suspended",
                        found=refreshed.found if refreshed else 0,
                    )
                return outcome
        stats.alignments += result.stats.alignments
        stats.cells += result.stats.cells
        payload = result_to_dict(result, digest=record.digest, spec=spec)
        cache.put(record.digest, payload)
    except Exception as exc:  # noqa: BLE001 - a job must never kill its worker
        stats.jobs_failed += 1
        publish()
        _fail(store, job_id, exc)
        return "failed"
    stats.jobs_done += 1
    publish()
    finish_job(store, record, result)
    return "done"


def _fail(store: JobStore, job_id: str, exc: Exception) -> None:
    store.finish(
        job_id, JobState.FAILED, error=str(exc), event_data={"error": str(exc)}
    )


def _run_incremental(
    store: JobStore,
    finder: RepeatFinder,
    sequence: Sequence,
    spec: JobSpec,
    job_id: str,
    *,
    should_stop: Callable[[], bool],
    chunk_delay: float,
) -> RepeatResult | None:
    """Figure 5 loop, one acceptance at a time, checkpointed by the clock.

    Returns ``None`` when interrupted (cancel / graceful stop) — the
    checkpoint then holds everything accepted so far.
    """
    checkpointed_at = time.monotonic()
    session = None
    ckpt = store.checkpoint_path(job_id)
    if ckpt.exists():
        try:
            session = finder.session(sequence, checkpoint=ckpt)
            store.append_event(job_id, "resumed", found=len(session))
        except ValueError as exc:
            store.append_event(job_id, "checkpoint-invalid", error=str(exc))
    if session is None:
        session = finder.session(sequence)

    # One live session for the whole job: the heap, with every stale
    # bound the search has earned, survives across acceptances, so a
    # checkpoint costs no realignment work.  None follows the final
    # acceptance: finish_job clears the file anyway.
    k = spec.top_alignments
    while not session.finished(k):
        if store.cancel_requested(job_id) or should_stop():
            store.save_job_checkpoint(job_id, session.state)
            return None
        with obs_span("chunk", job=job_id, target=len(session) + 1):
            session.extend(1)
        checkpointed = (
            not session.finished(k)
            and time.monotonic() - checkpointed_at >= CHECKPOINT_SECONDS
        )
        if checkpointed:
            store.save_job_checkpoint(job_id, session.state)
            checkpointed_at = time.monotonic()
        store.append_event(
            job_id, "progress", found=len(session), target=k, checkpointed=checkpointed
        )
        if chunk_delay > 0:
            time.sleep(chunk_delay)
    return finder.result(session)


def _park(wake: Connection, timeout: float) -> bool:
    """Block until the server signals a spooled marker or ``timeout``
    passes; False when the server has gone (its end of the pipe closed).

    One read drains every signal sent while the worker was busy: they
    all said "look at the spool", which the next claim does anyway.
    """
    ready, _, _ = select.select([wake], [], [], timeout)
    return not ready or os.read(wake.fileno(), 4096) != b""


def worker_main(
    data_dir: str,
    index: int = 0,
    *,
    poll_interval: float = 0.05,
    wake: Connection,
    report: Connection,
) -> int:
    """One worker process: claim → execute → repeat until signalled.

    SIGTERM/SIGINT request a graceful stop: the acceptance in flight finishes,
    the job is checkpointed and released back to the queue, the final
    counters are published, and the process exits 0.  ``wake`` and
    ``report`` are the pool's pipes (see the module docstring); when
    the server's end of ``wake`` closes, the worker stops the same way.
    """
    stop = {"flag": False}

    def _request_stop(_signum, _frame) -> None:
        stop["flag"] = True

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)

    store, queue, cache = open_stores(data_dir, capacity=0)

    def _report(job_id: str) -> None:
        try:
            report.send_bytes(job_id.encode())
        except OSError:
            pass  # the server has gone; whoever restarts it recovers the job

    store.on_event = _report
    tag = f"worker-{index}"
    stats = WorkerStats(pid=os.getpid())
    chunk_delay = float(os.environ.get(CHUNK_DELAY_ENV, "0") or 0)

    def publish() -> None:
        stats.updated = time.time()
        try:
            store.write_worker_stats(tag, asdict(stats))
        except OSError as exc:
            _store_failed(tag, "publishing counters", exc)

    publish()
    while not stop["flag"]:
        job_id = queue.claim()
        if job_id is None:
            if not _park(wake, poll_interval):
                stop["flag"] = True
            continue
        try:
            _run_claimed(
                store, queue, cache, job_id, tag,
                should_stop=lambda: stop["flag"],
                chunk_delay=chunk_delay,
                stats=stats,
                publish=publish,
            )
        except OSError as exc:
            # A store that cannot be read or written (a full disk, a lost
            # permission) must not end the worker.  The claim stays in
            # ``claimed/``, so the next pool's recover() requeues the job.
            _store_failed(tag, f"running job {job_id}", exc)
            publish()
    publish()
    return 0


def _store_failed(tag: str, doing: str, exc: OSError) -> None:
    print(f"repro {tag}: store error while {doing}: {exc}", file=sys.stderr, flush=True)


def _run_claimed(
    store: JobStore,
    queue: SpoolQueue,
    cache: ResultCache,
    job_id: str,
    tag: str,
    *,
    stats: WorkerStats,
    **execute,
) -> None:
    """Run the job whose marker this worker claimed, then settle the
    marker: released when the run was suspended, dropped otherwise."""
    record = store.get(job_id)
    if record is not None and not record.terminal:
        record = store.update(
            job_id,
            state=JobState.RUNNING,
            started=time.time(),
            worker=tag,
            attempts=record.attempts + 1,
        )
    if record is None or record.terminal:
        queue.discard(job_id)
        return
    store.append_event(job_id, "claimed", worker=tag, attempt=record.attempts)
    outcome = execute_job(store, cache, record, stats=stats, **execute)
    if outcome == "suspended":
        stats.jobs_suspended += 1
        store.update(job_id, state=JobState.QUEUED, worker="")
        queue.release(job_id)
        store.append_event(job_id, "requeued", reason="worker draining")
    else:
        queue.discard(job_id)


def _worker_entry(data_dir: str, index: int, poll_interval: float,
                  wake, report) -> None:
    raise SystemExit(
        worker_main(
            data_dir, index, poll_interval=poll_interval, wake=wake, report=report
        )
    )


class WorkerPool:
    """Spawned worker processes over one service data directory.

    ``start`` first runs :func:`recover` (requeueing work stranded by a
    previous pool), then spawns ``workers`` processes.  ``stop`` drains
    gracefully by default: SIGTERM, join, escalate to SIGKILL only
    after ``timeout`` — a killed worker loses at most the work since
    its job's last checkpoint, never the job.

    :meth:`wake` tells every worker that a marker was spooled, and
    ``on_report`` is called (on the pool's reader thread) with the job
    id of every event a worker appends.
    """

    def __init__(
        self,
        data_dir: str | os.PathLike,
        *,
        workers: int = 2,
        poll_interval: float = 0.05,
        on_report: Callable[[str], None] = lambda job_id: None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.data_dir = os.fspath(data_dir)
        self.workers = workers
        self.poll_interval = poll_interval
        self.on_report = on_report
        self._ctx = multiprocessing.get_context("spawn")
        self._procs: list[multiprocessing.process.BaseProcess] = []
        #: The server's ends of the wake pipes; the lock keeps a
        #: :meth:`wake` on an HTTP thread off a descriptor ``stop`` closed.
        self._wake_lock = threading.Lock()
        self._wakes: list[Connection] = []
        self._reader: threading.Thread | None = None

    def start(self) -> list[str]:
        """Recover stranded jobs, then spawn the workers; returns requeued ids."""
        if self._procs:
            raise RuntimeError("pool already started")
        store, queue, _ = open_stores(self.data_dir, capacity=0)
        requeued = recover(store, queue)
        wakes, reports = [], []
        for index in range(self.workers):
            wake_r, wake_w = self._ctx.Pipe(duplex=False)
            report_r, report_w = self._ctx.Pipe(duplex=False)
            # A worker busy with a long job must never block the server.
            os.set_blocking(wake_w.fileno(), False)
            proc = self._ctx.Process(
                target=_worker_entry,
                args=(
                    self.data_dir,
                    index,
                    self.poll_interval,
                    wake_r,
                    report_w,
                ),
                name=f"repro-worker-{index}",
                daemon=True,
            )
            proc.start()
            # Only the child holds its ends now, so its death closes them.
            wake_r.close()
            report_w.close()
            self._procs.append(proc)
            wakes.append(wake_w)
            reports.append(report_r)
        with self._wake_lock:
            self._wakes = wakes
        self._reader = threading.Thread(
            target=self._read_reports, args=(reports,),
            name="repro-worker-reports", daemon=True,
        )
        self._reader.start()
        return requeued

    def _read_reports(self, reports: list[Connection]) -> None:
        """Hand every worker report to ``on_report`` until each worker's
        pipe has closed (it exited or was killed)."""
        from multiprocessing.connection import wait

        while reports:
            for conn in wait(reports):
                try:
                    job_id = conn.recv_bytes().decode()
                except (EOFError, OSError):
                    reports.remove(conn)
                    conn.close()
                    continue
                self.on_report(job_id)

    def wake(self) -> None:
        """Signal every worker that a marker was spooled."""
        with self._wake_lock:
            for conn in self._wakes:
                try:
                    os.write(conn.fileno(), b"\0")
                except (BlockingIOError, BrokenPipeError):
                    pass  # a full pipe already says so; a broken one, nobody left to tell

    @property
    def processes(self) -> list[multiprocessing.process.BaseProcess]:
        return list(self._procs)

    def alive_count(self) -> int:
        return sum(1 for p in self._procs if p.is_alive())

    def stop(self, *, graceful: bool = True, timeout: float = 30.0) -> bool:
        """Stop every worker; returns True when all exited cleanly."""
        for proc in self._procs:
            if proc.is_alive():
                if graceful:
                    proc.terminate()  # SIGTERM → drain to checkpoint
                else:
                    proc.kill()
        deadline = time.monotonic() + timeout
        clean = True
        for proc in self._procs:
            proc.join(max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.kill()
                proc.join(5.0)
                clean = False
            elif proc.exitcode != 0:
                clean = False
        self._procs = []
        with self._wake_lock:
            wakes, self._wakes = self._wakes, []
        for conn in wakes:
            conn.close()
        if self._reader is not None:
            self._reader.join(5.0)
            self._reader = None
        return clean

    def join(self, timeout: float | None = None) -> None:
        for proc in self._procs:
            proc.join(timeout)
