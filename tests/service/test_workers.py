"""The job executor: equivalence with the library, cache hits, failures."""

import pytest

from repro.sequences import Sequence, pseudo_titin
from repro.service import JobSpec, JobState, job_digest
from repro.service.protocol import finder_for, result_to_dict
from repro.service.workers import (
    WorkerStats,
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
    def test_checkpoint_per_acceptance_repays_no_alignments(self, stores):
        """Default spec, checkpoint after every acceptance: the live
        session keeps its heap, so the job aligns what a one-shot
        in-process run aligns (it used to rebuild the heap per chunk —
        372 alignments against 119 on an 80-residue protein)."""
        store, queue, cache = stores
        spec = JobSpec(sequence=pseudo_titin(80, seed=3).text, top_alignments=5)
        record = _submit(store, queue, spec)
        assert execute_job(store, cache, record, checkpoint_every=1) == "done"
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
        # index/index_k are execution knobs, not semantics: same digest.
        assert job_digest(plain) == job_digest(seeded)
        r1 = _submit(store, queue, plain)
        assert execute_job(store, cache, r1) == "done"
        first = cache.get(r1.digest)
        cache.path_for(r1.digest).unlink()
        fresh_cache = type(cache)(cache.root)
        r2 = _submit(store, queue, seeded)
        stats = WorkerStats()
        assert execute_job(store, fresh_cache, r2, stats=stats) == "done"
        second = fresh_cache.get(r2.digest)
        assert second["top_alignments"] == first["top_alignments"]
        assert second["repeats"] == first["repeats"]
        assert stats.index_seeded == 1

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

    def test_pre_claim_cancel(self, stores):
        store, queue, cache = stores
        record = _submit(store, queue, _titin_spec())
        store.request_cancel(record.id)
        assert execute_job(store, cache, record) == "cancelled"
        assert store.get(record.id).state == JobState.CANCELLED
        assert not store.cancel_requested(record.id)  # flag cleared


class TestProgressEvents:
    def test_chunked_run_emits_checkpointed_progress(self, stores):
        store, queue, cache = stores
        record = _submit(store, queue, _titin_spec())
        execute_job(store, cache, record, checkpoint_every=1)
        events = store.read_events(record.id)
        progress = [e for e in events if e["event"] == "progress"]
        assert progress and all(e["checkpointed"] for e in progress)
        assert progress[-1]["found"] == 4
        assert events[-1]["event"] == "done"

    def test_checkpoint_cleared_after_done(self, stores):
        store, queue, cache = stores
        record = _submit(store, queue, _titin_spec())
        execute_job(store, cache, record, checkpoint_every=1)
        assert not store.checkpoint_path(record.id).exists()


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

