"""Weighted fair share through the real path: ``Gateway.submit`` stamps
the spool key, ``SpoolQueue.claim`` (smallest key first) is the order.

Nothing here schedules: every expectation is about what a worker's
plain ``claim()`` returns after admissions in some order.
"""

import json
import os
import sys
import tempfile
import threading
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway import Gateway, TenantDirectory
from repro.gateway.admission import TICK
from repro.service.server import ReproService, ServiceConfig
from repro.service.workers import open_stores

SPEC = {"sequence": "ACDEFGHIKLMNPQRSTVWY", "top_alignments": 1}


class Spool:
    """A tenant-mode gateway over real stores, and a stand-in worker."""

    def __init__(self, root, weights):
        self.root = Path(root)
        self.tenants_file = self.root / "tenants.json"
        self.tenants_file.write_text(
            json.dumps(
                {
                    "tenants": {
                        name: {"api_key": f"{name}-key", "weight": weight}
                        for name, weight in weights.items()
                    }
                }
            ),
            encoding="utf-8",
        )
        self.owner = {}
        self.reopen()

    def reopen(self):
        """A new server process over the same data directory."""
        self.store, self.queue, cache = open_stores(self.root / "data", capacity=0)
        self.gateway = Gateway(
            self.store,
            self.queue,
            cache,
            directory=TenantDirectory(self.tenants_file),
        )
        return self.gateway.recover()

    def submit(self, tenant, n=1, **spec):
        ids = [
            self.gateway.submit(dict(SPEC, **spec), api_key=f"{tenant}-key").record.id
            for _ in range(n)
        ]
        self.owner.update(dict.fromkeys(ids, tenant))
        return ids

    def claim(self):
        return self.queue.claim()

    def finish(self, job_id):
        self.store.finish(job_id, "done")
        self.queue.discard(job_id)

    def drain(self):
        """Claim (and finish) until empty; the tenants in claim order."""
        order = []
        while (job_id := self.claim()) is not None:
            order.append(job_id)
            self.finish(job_id)
        return order

    def tenants(self, job_ids):
        return [self.owner[job_id] for job_id in job_ids]


def spool(tmp_path, **weights):
    return Spool(tmp_path, weights)


class TestBasics:
    def test_empty_grants_none(self, tmp_path):
        assert spool(tmp_path, a=1).claim() is None

    def test_single_lane_is_fifo(self, tmp_path):
        s = spool(tmp_path, a=1)
        ids = s.submit("a", 3)
        assert s.drain() == ids

    def test_equal_weights_alternate(self, tmp_path):
        s = spool(tmp_path, a=1, b=1)
        s.submit("a", 2)
        s.submit("b", 2)
        assert s.tenants(s.drain()) == ["a", "b", "a", "b"]

    def test_weight_skews_share(self, tmp_path):
        s = spool(tmp_path, heavy=3, light=1)
        s.submit("heavy", 30)
        s.submit("light", 30)
        first_20 = s.tenants(s.drain())[:20]
        # 3:1 weights: tags 0, ⅓, ⅔, 1, … against 0, 1, 2, … — 15 of 20.
        assert 14 <= first_20.count("heavy") <= 16

    def test_float_weights(self, tmp_path):
        s = spool(tmp_path, bulk=1, quick=2.5)
        s.submit("bulk", 10)
        s.submit("quick", 10)
        first_7 = s.tenants(s.drain())[:7]
        assert first_7.count("quick") == 5  # tags 0, .4, .8, 1.2, 1.6 < 2

    def test_light_tenant_overtakes_heavy_backlog(self, tmp_path):
        """A saturating tenant cannot starve a light one: the light
        job's tag is the clock — the backlog's head — not its tail."""
        s = spool(tmp_path, heavy=1, light=1)
        s.submit("heavy", 60)
        for _ in range(7):
            s.finish(s.claim())
        (light_id,) = s.submit("light")
        assert light_id in (s.claim(), s.claim())

    def test_idle_lane_accumulates_no_credit(self, tmp_path):
        s = spool(tmp_path, a=1, b=1)
        s.submit("b", 8)
        assert s.tenants(s.drain()) == ["b"] * 8  # a idle all along
        s.submit("b", 4)
        s.submit("a", 4)
        # No burst of a's: it starts at the clock like anyone else.
        assert s.tenants(s.drain()) == ["b", "a"] * 4

    def test_remove_and_retire(self, tmp_path):
        """Cancel while queued: the job has exactly one marker, and
        none after — there is no second place it could be waiting."""
        service = ReproService(ServiceConfig(data_dir=str(tmp_path), workers=0))
        record, _ = service.submit(SPEC)
        markers = os.listdir(service.queue.queued_dir)
        assert [m.rsplit(".", 1)[-1] for m in markers] == [record.id]
        assert service.cancel(record.id).state == "cancelled"
        assert os.listdir(service.queue.queued_dir) == []
        assert os.listdir(service.queue.claimed_dir) == []
        assert service.cancel(record.id).state == "cancelled"  # no-op now
        assert service.queue.claim() is None


class TestPriority:
    def test_priority_is_honoured_under_backlog(self, tmp_path):
        s = spool(tmp_path, a=1)
        s.submit("a", 10)
        (urgent,) = s.submit("a", priority=3)
        assert s.claim() == urgent

    def test_priority_orders_across_tenants(self, tmp_path):
        s = spool(tmp_path, a=1, b=4)
        s.submit("b", 5)
        (urgent,) = s.submit("a", priority=1)
        assert s.claim() == urgent

    def test_each_priority_level_is_its_own_fair_queue(self, tmp_path):
        """A tenant's backlog at one level does not push its jobs at
        another level behind everyone else's."""
        s = spool(tmp_path, a=1, b=1)
        s.submit("a", 20)  # a's priority-0 tags run far ahead
        b_ids = s.submit("b", 3, priority=2)
        a_ids = s.submit("a", 3, priority=2)
        first_6 = [s.claim() for _ in range(6)]
        assert first_6 == [x for pair in zip(b_ids, a_ids) for x in pair]


class TestClock:
    def test_wall_clock_stepping_back_keeps_a_tenant_fifo(self, tmp_path, monkeypatch):
        s = spool(tmp_path, a=1)
        ticks = iter([2_000_000_000_000_000_000, 1_000_000_000_000_000_000])
        monkeypatch.setattr("repro.service.queue.time.time_ns", lambda: next(ticks))
        ids = s.submit("a", 2)
        assert [s.claim(), s.claim()] == ids


    def test_clock_is_the_backlog_head_not_the_oldest_claim(self, tmp_path):
        """Two workers; one sits on an early job while the other works
        through the backlog.  A newcomer's burst starts beside the
        backlog's head — a clock read from ``claimed/`` would step back
        to the old claim and let the whole burst in underneath."""
        s = spool(tmp_path, a=1, b=1)
        a_ids = s.submit("a", 10)
        stuck = s.claim()
        for _ in range(5):
            s.finish(s.claim())
        assert s.queue.tags()[stuck] == (0, 0) and s.queue.in_flight() == 1
        b_ids = s.submit("b", 8)
        rest = a_ids[6:]
        expected = [x for pair in zip(rest, b_ids) for x in pair] + b_ids[4:]
        assert s.drain() == expected


    def test_concurrent_admissions_lose_no_tag(self, tmp_path):
        """Handler threads race on one tenant's finish tag: every job
        still gets its own tag, ``TICK`` after the one before."""
        s = spool(tmp_path, a=1)
        threads = [
            threading.Thread(target=s.submit, args=("a", 10)) for _ in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        tags = sorted(tag for _, tag in s.queue.tags().values())
        assert tags == [i * TICK for i in range(40)]


class TestRestart:
    def test_backlog_survives_a_restart_and_is_still_overtaken(self, tmp_path):
        s = spool(tmp_path, heavy=1, light=4)
        heavy_ids = s.submit("heavy", 6)
        assert s.reopen() == 0  # every job has its marker: nothing to respool
        (light_id,) = s.submit("light")
        order = s.drain()
        assert [j for j in order if j != light_id] == heavy_ids
        assert order.index(light_id) <= 1
        # The heavy tenant's finish tag came back from its markers: its
        # next job queues behind its own backlog's tail, not at the clock.
        more = s.submit("heavy", 6)
        s.reopen()
        late = s.submit("heavy")
        assert s.drain() == more + late

    def test_a_queued_record_without_a_marker_is_spooled_again(self, tmp_path):
        """A crash between ``new_job`` and ``submit``."""
        s = spool(tmp_path, a=1)
        first = s.store.new_job(SPEC, "d" * 64, tenant="a")
        (second,) = s.submit("a")
        assert s.reopen() == 1
        assert sorted(s.queue.tags()) == sorted([first.id, second])
        assert s.gateway.snapshot()["active"]["a"]["jobs"] == 2


def _weights():
    return st.lists(
        st.one_of(
            st.integers(min_value=1, max_value=8),
            st.sampled_from([1.5, 2.5, 4.75]),
        ),
        min_size=1,
        max_size=5,
    )


#: One step of a schedule: a tenant submits a burst, a claimant takes
#: the next job, one of the claimed jobs finishes, or the server restarts.
_steps = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.integers(0, 4), st.integers(1, 8)),
        st.tuples(st.just("claim"), st.just(0), st.just(0)),
        st.tuples(st.just("finish"), st.integers(0, 2), st.just(0)),
        st.tuples(st.just("restart"), st.just(0), st.just(0)),
    ),
    min_size=1,
    max_size=40,
)


class TestStarvationProperty:
    @settings(deadline=None)  # no example count: the ci-deep profile sets it
    @given(weights=_weights(), claimants=st.integers(1, 3), steps=_steps)
    def test_every_tenant_served_within_bound(self, weights, claimants, steps):
        """For any weights (≥ 1), any interleaving of bursts, claims and
        completions and one to three claimants: a tenant is FIFO, and
        the job at its head is claimed within ``sum(weights) +
        n_tenants`` claims of becoming the head (the bound derived in
        :mod:`repro.gateway.admission`).  A restart forgets the finish
        tag of a tenant with no marker left, which may let that tenant
        in one job early, so waits are counted from the last restart.
        """
        names = [f"t{i}" for i in range(len(weights))]
        bound = sum(weights) + len(weights)
        with tempfile.TemporaryDirectory() as root:
            s = Spool(root, dict(zip(names, weights)))
            pending = {name: [] for name in names}  # submit order, unclaimed
            head_since = {}
            claimed = []
            claims = 0

            def claim_one():
                nonlocal claims
                job_id = s.claim()
                if job_id is None:
                    assert not any(pending.values())
                    return False
                tenant = s.owner[job_id]
                assert pending[tenant].pop(0) == job_id, "tenant not FIFO"
                waited = claims - head_since[tenant]
                assert waited < bound, (
                    f"{tenant} waited {waited} claims at its head, bound {bound}"
                )
                claims += 1
                head_since[tenant] = claims
                claimed.append(job_id)
                return True

            for step, which, burst in steps:
                if step == "submit":
                    tenant = names[which % len(names)]
                    if not pending[tenant]:
                        head_since[tenant] = claims
                    pending[tenant] += s.submit(tenant, burst)
                elif step == "claim" and len(claimed) < claimants:
                    claim_one()
                elif step == "finish" and claimed:
                    s.finish(claimed.pop(which % len(claimed)))
                elif step == "restart":
                    assert s.reopen() == 0
                    head_since = dict.fromkeys(names, claims)
            while claim_one():
                s.finish(claimed.pop())

    @settings(max_examples=25, deadline=None)
    @given(weights=st.lists(st.integers(1, 4), min_size=2, max_size=4))
    def test_long_run_share_tracks_weights(self, weights):
        """While every tenant stays backlogged, each one's share of the
        claims tracks its weight fraction to within a job per tenant."""
        names = [f"t{i}" for i in range(len(weights))]
        total = sum(weights)
        with tempfile.TemporaryDirectory() as root:
            s = Spool(root, dict(zip(names, weights)))
            for name, weight in zip(names, weights):
                s.submit(name, 3 * weight)
            first = s.tenants(s.drain())[: 2 * total]
        for name, weight in zip(names, weights):
            assert abs(first.count(name) - 2 * weight) <= len(weights) + 1
