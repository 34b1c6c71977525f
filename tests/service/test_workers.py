"""The job executor: equivalence with the library, cache hits, failures."""

import dataclasses

import pytest

import repro.service.jobstore as jobstore_mod
import repro.service.workers as workers_mod
from repro.sequences import Sequence, pseudo_titin
from repro.service import JobSpec, JobState, job_digest
from repro.service.jobstore import JobStore
from repro.service.protocol import finder_for, result_to_dict
from repro.service.workers import (
    WorkerStats,
    _run_claimed,
    execute_job,
    open_stores,
    recover,
)


@pytest.fixture()
def stores(tmp_path):
    return open_stores(tmp_path / "data")


def _submit(store, queue, spec):
    record = store.new_job(spec.to_dict(), job_digest(spec), spec.priority)
    queue.submit(record.id, spec.priority)
    store.append_event(record.id, "queued")
    return record


def _titin_spec(**overrides):
    payload = {"sequence": pseudo_titin(60, seed=2).text, "top_alignments": 4}
    payload.update(overrides)
    return JobSpec(**payload)


class TestBuildFinder:  # finder_for, the one spec→finder function
    def test_mirrors_spec_knobs(self):
        spec = _titin_spec(engine="lanes", group=8, min_score=3.0, matrix="pam250")
        finder = finder_for(spec)
        assert finder.engine == "lanes"
        assert finder.group == 8
        assert finder.min_score == 3.0
        assert finder.top_alignments == 4

    def test_simple_matrix_for_dna(self):
        spec = JobSpec(sequence="ATGCATGCATGC", alphabet="dna", matrix="simple")
        finder = finder_for(spec)
        result = finder.find(Sequence("ATGCATGCATGC", "dna"))
        assert result.top_alignments


class TestExecuteJob:
    def test_checkpoint_per_acceptance_repays_no_alignments(self, stores, monkeypatch):
        """Default spec, checkpoint after every acceptance: the live
        session keeps its heap, so the job aligns what a one-shot
        in-process run aligns (it used to rebuild the heap per chunk —
        372 alignments against 119 on an 80-residue protein)."""
        monkeypatch.setattr(workers_mod, "CHECKPOINT_SECONDS", 0.0)
        store, queue, cache = stores
        spec = JobSpec(sequence=pseudo_titin(80, seed=3).text, top_alignments=5)
        record = _submit(store, queue, spec)
        assert execute_job(store, cache, record) == "done"
        served = cache.get(record.digest)["stats"]

        direct = finder_for(spec).find(
            Sequence(spec.normalized_sequence(), spec.alphabet)
        )
        assert served["engine"] == direct.stats.engine
        assert served["group"] == direct.stats.group == spec.group
        assert served["alignments"] <= 1.10 * direct.stats.alignments
        assert served["cells"] <= 1.10 * direct.stats.cells

    def test_matches_direct_library_call(self, stores):
        store, queue, cache = stores
        spec = _titin_spec()
        record = _submit(store, queue, spec)
        assert execute_job(store, cache, record) == "done"

        refreshed = store.get(record.id)
        assert refreshed.state == JobState.DONE
        assert refreshed.found == 4
        payload = cache.get(record.digest)
        baseline = result_to_dict(
            finder_for(spec).find(
                Sequence(spec.normalized_sequence(), spec.alphabet)
            ),
            digest=record.digest,
            spec=spec,
        )
        assert payload["top_alignments"] == baseline["top_alignments"]
        assert payload["repeats"] == baseline["repeats"]

    def test_grouped_driver_same_results(self, stores):
        store, queue, cache = stores
        plain = _titin_spec()
        grouped = _titin_spec(engine="lanes", group=4)
        assert job_digest(plain) == job_digest(grouped)
        r1 = _submit(store, queue, plain)
        assert execute_job(store, cache, r1) == "done"
        first = cache.get(r1.digest)
        # Clear the cache so the grouped run actually aligns.
        cache.path_for(r1.digest).unlink()
        fresh_cache = type(cache)(cache.root)
        r2 = _submit(store, queue, grouped)
        assert execute_job(store, fresh_cache, r2) == "done"
        second = fresh_cache.get(r2.digest)
        assert second["top_alignments"] == first["top_alignments"]
        assert second["repeats"] == first["repeats"]

    def test_index_seeded_job_same_results(self, stores):
        store, queue, cache = stores
        plain = _titin_spec()
        seeded = _titin_spec(index=True)
        # The single-job search does not read index/index_k: same digest.
        assert job_digest(plain) == job_digest(seeded)
        r1 = _submit(store, queue, plain)
        assert execute_job(store, cache, r1) == "done"
        first = cache.get(r1.digest)
        cache.path_for(r1.digest).unlink()
        fresh_cache = type(cache)(cache.root)
        r2 = _submit(store, queue, seeded)
        assert execute_job(store, fresh_cache, r2) == "done"
        second = fresh_cache.get(r2.digest)
        assert second["top_alignments"] == first["top_alignments"]
        assert second["repeats"] == first["repeats"]

    def test_old_algorithm_record_fails_cleanly(self, stores):
        """A record spooled by a release that still served the O(n^4)
        baseline is failed with the reason, not run and not crashed on."""
        store, queue, cache = stores
        record = _submit(store, queue, _titin_spec())
        record.spec["algorithm"] = "old"
        assert execute_job(store, cache, record) == "failed"
        assert "algorithm" in store.get(record.id).error
        # Likewise a stored spec naming an engine since retired from the
        # closed table: the cause lands in the record, no worker dies.
        retired = _submit(store, queue, _titin_spec())
        retired.spec["engine"] = "gotoh"
        assert execute_job(store, cache, retired) == "failed"
        assert "engine" in store.get(retired.id).error

    def test_duplicate_served_from_cache_with_zero_work(self, stores):
        store, queue, cache = stores
        spec = _titin_spec()
        first = _submit(store, queue, spec)
        stats = WorkerStats()
        execute_job(store, cache, first, stats=stats)
        aligned_once = stats.alignments
        assert aligned_once > 0

        duplicate = _submit(store, queue, spec)
        assert execute_job(store, cache, duplicate, stats=stats) == "done"
        refreshed = store.get(duplicate.id)
        assert refreshed.served_from_cache
        assert refreshed.state == JobState.DONE
        assert stats.cache_hits == 1
        assert stats.alignments == aligned_once  # no new alignment work
        events = [e["event"] for e in store.read_events(duplicate.id)]
        assert "cache-hit" in events

    def test_a_cache_hit_records_the_tops_the_search_found(self, stores):
        """Both queued before either ran: the second is served by the
        worker's cache probe and records what the result holds, not k."""
        store, queue, cache = stores
        spec = JobSpec(sequence="MKTAYIAKQRQISFVKSHFSRQ", top_alignments=5, min_score=30)
        first, duplicate = _submit(store, queue, spec), _submit(store, queue, spec)
        assert execute_job(store, cache, first) == "done"
        assert execute_job(store, cache, duplicate) == "done"
        assert store.get(duplicate.id).served_from_cache
        tops = len(cache.get(first.digest)["top_alignments"])
        assert tops < spec.top_alignments
        assert store.get(first.id).found == store.get(duplicate.id).found == tops

    def test_invalid_spec_fails_without_killing_caller(self, stores):
        store, queue, cache = stores
        record = store.new_job({"nonsense": True}, "ab" + "0" * 62, 0)
        stats = WorkerStats()
        assert execute_job(store, cache, record, stats=stats) == "failed"
        refreshed = store.get(record.id)
        assert refreshed.state == JobState.FAILED
        assert refreshed.error

    def test_runtime_error_marks_failed(self, stores, monkeypatch):
        store, queue, cache = stores
        import repro.service.workers as workers_mod

        def boom(_spec):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(workers_mod, "finder_for", boom)
        record = _submit(store, queue, _titin_spec())
        stats = WorkerStats()
        assert execute_job(store, cache, record, stats=stats) == "failed"
        refreshed = store.get(record.id)
        assert refreshed.state == JobState.FAILED
        assert "engine exploded" in refreshed.error
        assert stats.jobs_failed == 1
        assert cache.get(record.digest) is None

    @pytest.mark.parametrize(
        "outcome, counter",
        [
            ("done", "jobs_done"),
            ("cache-hit", "cache_hits"),
            ("failed", "jobs_failed"),
            ("cancelled", "jobs_cancelled"),
        ],
    )
    def test_counters_are_published_before_the_job_reads_terminal(
        self, stores, monkeypatch, outcome, counter
    ):
        """Whoever sees a job finished also sees it in the counters."""
        store, queue, cache = stores
        spec = _titin_spec()
        if outcome == "cache-hit":
            execute_job(store, cache, _submit(store, queue, spec))
        record = _submit(store, queue, spec)
        if outcome == "failed":
            monkeypatch.setattr(cache, "put", lambda *_: 1 / 0)

        def cancel_mid_run():
            store.request_cancel(record.id)
            return False

        stats = WorkerStats()
        published = []

        def publish():
            published.append((store.get(record.id).terminal, dataclasses.asdict(stats)))

        execute_job(
            store, cache, record, stats=stats, publish=publish,
            should_stop=cancel_mid_run if outcome == "cancelled" else None,
        )
        assert store.get(record.id).terminal
        assert published == [(False, dataclasses.asdict(stats))]
        assert getattr(stats, counter) == 1

    def test_pre_claim_cancel(self, stores):
        store, queue, cache = stores
        record = _submit(store, queue, _titin_spec())
        store.request_cancel(record.id)
        assert execute_job(store, cache, record) == "cancelled"
        assert store.get(record.id).state == JobState.CANCELLED
        assert not store.cancel_requested(record.id)  # flag cleared


class TestProgressEvents:
    def test_chunked_run_emits_checkpointed_progress(self, stores, monkeypatch):
        """With a zero interval every acceptance but the last checkpoints."""
        monkeypatch.setattr(workers_mod, "CHECKPOINT_SECONDS", 0.0)
        store, queue, cache = stores
        record = _submit(store, queue, _titin_spec())
        execute_job(store, cache, record)
        events = store.read_events(record.id)
        progress = [e for e in events if e["event"] == "progress"]
        assert [e["checkpointed"] for e in progress] == [True, True, True, False]
        assert progress[-1]["found"] == 4
        assert events[-1]["event"] == "done"

    def test_one_exact_progress_event_per_acceptance(self, stores):
        store, queue, cache = stores
        record = _submit(store, queue, _titin_spec())
        execute_job(store, cache, record)
        progress = [e for e in store.read_events(record.id) if e["event"] == "progress"]
        assert [(e["found"], e["target"]) for e in progress] == [
            (1, 4), (2, 4), (3, 4), (4, 4)
        ]

    def test_checkpoint_cleared_after_done(self, stores, monkeypatch):
        monkeypatch.setattr(workers_mod, "CHECKPOINT_SECONDS", 0.0)
        store, queue, cache = stores
        record = _submit(store, queue, _titin_spec())
        execute_job(store, cache, record)
        assert not store.checkpoint_path(record.id).exists()


class _Killed(BaseException):
    """A worker death after some acceptance: not an ``Exception``, so
    ``execute_job`` does not fail the job on its way out."""


def _count(monkeypatch, owner, name, seen=lambda *args: args):
    """What ``seen`` makes of each call of ``owner.name``, taken at the
    call (the function is still called)."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(seen(*args))
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestCheckpointClock:
    """A job checkpoints by elapsed wall time, never after its last
    acceptance, and writes ``found`` into its record with each one."""

    def test_a_job_inside_the_interval_writes_no_checkpoint(self, stores, monkeypatch):
        monkeypatch.setattr(workers_mod, "CHECKPOINT_SECONDS", 3600.0)
        saves = _count(monkeypatch, jobstore_mod, "save_checkpoint")
        store, queue, cache = stores
        record = _submit(store, queue, _titin_spec())
        assert execute_job(store, cache, record) == "done"
        assert saves == []
        progress = [e for e in store.read_events(record.id) if e["event"] == "progress"]
        assert len(progress) == 4 and not any(e["checkpointed"] for e in progress)

    def test_its_record_is_written_at_claim_and_at_finish_only(self, stores, monkeypatch):
        monkeypatch.setattr(workers_mod, "CHECKPOINT_SECONDS", 3600.0)
        store, queue, cache = stores
        record = _submit(store, queue, _titin_spec())
        puts = _count(monkeypatch, JobStore, "put", lambda _, written: written.state)
        assert queue.claim() == record.id
        _run_claimed(store, queue, cache, record.id, "w", stats=WorkerStats())
        assert puts == [JobState.RUNNING, JobState.DONE]
        assert store.get(record.id).found == 4

    def test_a_zero_interval_checkpoints_every_acceptance_but_the_last(
        self, stores, monkeypatch
    ):
        monkeypatch.setattr(workers_mod, "CHECKPOINT_SECONDS", 0.0)
        saves = _count(
            monkeypatch, jobstore_mod, "save_checkpoint", lambda state, _: state.n_found
        )
        store, queue, cache = stores
        record = _submit(store, queue, _titin_spec())
        assert execute_job(store, cache, record) == "done"
        assert saves == [1, 2, 3]

    @pytest.mark.parametrize("interval, restored", [(0.0, 2), (3600.0, None)])
    def test_a_killed_job_repays_what_followed_its_last_checkpoint(
        self, stores, monkeypatch, interval, restored
    ):
        """Killed after its second acceptance: a zero interval restores
        both (none is repaid); inside the interval nothing was saved, so
        the job starts over.  Either way it ends with the plain tops."""
        monkeypatch.setattr(workers_mod, "CHECKPOINT_SECONDS", interval)
        store, queue, cache = stores
        spec = _titin_spec()
        record = _submit(store, queue, spec)
        append = store.append_event

        def die_at_the_second_acceptance(job_id, event, **data):
            append(job_id, event, **data)
            if event == "progress" and data["found"] == 2:
                raise _Killed

        store.append_event = die_at_the_second_acceptance
        with pytest.raises(_Killed):
            execute_job(store, cache, record)
        store.append_event = append
        assert store.get(record.id).found == (restored or 0)

        assert execute_job(store, cache, store.get(record.id)) == "done"
        resumed = [e for e in store.read_events(record.id) if e["event"] == "resumed"]
        assert [e["found"] for e in resumed] == ([restored] if restored else [])
        direct = finder_for(spec).find(Sequence(spec.normalized_sequence(), spec.alphabet))
        served = cache.get(record.digest)["top_alignments"]
        assert served == result_to_dict(direct, digest=record.digest, spec=spec)[
            "top_alignments"
        ]


class TestRecordDict:
    def test_is_a_shallow_asdict(self, stores):
        store, queue, _ = stores
        record = _submit(store, queue, _titin_spec())
        fields = record.to_dict()
        assert fields == dataclasses.asdict(record)
        assert fields["spec"] is record.spec


class TestRecover:
    def test_flips_running_records_back_to_queued(self, stores):
        store, queue, cache = stores
        record = _submit(store, queue, _titin_spec())
        claimed = queue.claim()
        assert claimed == record.id
        store.update(record.id, state=JobState.RUNNING, worker="worker-0")
        # Simulated worker death: marker stranded in claimed/.
        assert recover(store, queue) == [record.id]
        refreshed = store.get(record.id)
        assert refreshed.state == JobState.QUEUED
        assert refreshed.worker == ""
        events = [e for e in store.read_events(record.id) if e["event"] == "requeued"]
        assert events and events[-1]["reason"] == "worker lost"
        assert queue.claim() == record.id  # claimable again

    def test_drops_the_marker_of_a_finished_job(self, stores):
        # The worker died after the job's last record write, before it
        # dropped the marker: nothing is left to run.
        store, queue, cache = stores
        record = _submit(store, queue, _titin_spec())
        assert queue.claim() == record.id
        assert execute_job(store, cache, record) == "done"
        assert recover(store, queue) == []
        assert queue.depth() == queue.in_flight() == 0

