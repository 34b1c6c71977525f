"""Routing classification: skip / defer / full from the k-mer profile."""

import dataclasses

from repro.index import (
    ROUTE_DEFER,
    ROUTE_FULL,
    ROUTE_SKIP,
    IndexConfig,
    build_profile,
    classify,
    promise_score,
)
from repro.scoring import match_mismatch
from repro.sequences import DNA, Sequence, random_sequence
from repro.index import routing
from repro.sequences.workloads import RepeatSpec, implant_repeats


def recalibrate_routing(monkeypatch):
    """Move every routing-only calibration constant."""
    monkeypatch.setattr(routing, "CHAIN_SLACK", 9.0)
    monkeypatch.setattr(routing, "MARGIN", 5.0)
    monkeypatch.setattr(routing, "FULL_THRESHOLD", 0.5)
    monkeypatch.setattr(routing, "BACKGROUND_BETA", 1.0)


def _exchange():
    return match_mismatch(DNA, 2.0, -1.0, wildcard_score=None)


def _implanted(seed=0, length=240):
    return implant_repeats(
        length,
        RepeatSpec(unit_length=40, copies=4, substitution_rate=0.12),
        DNA,
        seed=seed,
    ).sequence


class TestClassify:
    def test_implanted_repeats_route_full(self):
        profile = build_profile(_implanted())
        decision = classify(profile, _exchange(), min_score=80.0)
        assert decision.route == ROUTE_FULL

    def test_quiet_background_skips_under_high_threshold(self):
        skipped = 0
        for seed in range(8):
            profile = build_profile(random_sequence(240, DNA, seed=100 + seed))
            decision = classify(profile, _exchange(), min_score=80.0)
            assert decision.route in (ROUTE_SKIP, ROUTE_FULL, ROUTE_DEFER)
            skipped += decision.route == ROUTE_SKIP
        # Most random records fall below an 80-score threshold.
        assert skipped >= 4

    def test_zero_threshold_never_skips(self):
        for seed in range(6):
            profile = build_profile(random_sequence(240, DNA, seed=seed))
            decision = classify(profile, _exchange(), min_score=0.0)
            assert decision.route != ROUTE_SKIP

    def test_threshold_below_background_never_skips(self):
        # Random 240 bp DNA self-aligns in the 40-55 range; the
        # background term keeps estimates above any such threshold.
        for seed in range(6):
            profile = build_profile(random_sequence(240, DNA, seed=seed))
            decision = classify(profile, _exchange(), min_score=20.0)
            assert decision.route != ROUTE_SKIP

    def test_skip_only_when_margin_clears_threshold(self):
        profile = build_profile(random_sequence(240, DNA, seed=1))
        decision = classify(profile, _exchange(), min_score=80.0)
        if decision.route == ROUTE_SKIP:
            assert routing.MARGIN * decision.estimate < 80.0

    def test_overflowed_profile_routes_full(self):
        profile = build_profile(Sequence("A" * 300, DNA))
        decision = classify(profile, _exchange(), min_score=1000.0)
        assert decision.route == ROUTE_FULL

    def test_defer_class_exists_for_midweight_records(self):
        # A quiet record under a threshold the estimate cannot rule out
        # lands in defer: scanned, but after the full class.
        profile = build_profile(random_sequence(240, DNA, seed=2))
        decision = classify(profile, _exchange(), min_score=0.0)
        assert decision.route in (ROUTE_DEFER, ROUTE_FULL)


class TestPromise:
    def test_repeats_promise_more_than_background(self):
        hot = promise_score(build_profile(_implanted()), _exchange())
        quiet = promise_score(
            build_profile(random_sequence(240, DNA, seed=3)), _exchange()
        )
        assert hot > quiet

    def test_overflow_saturates(self):
        profile = build_profile(Sequence("A" * 300, DNA))
        assert promise_score(profile, _exchange()) == 2.0 * 300


class TestConfig:
    def test_profile_params_exclude_routing_knobs(self, monkeypatch):
        before = IndexConfig().profile_params()
        recalibrate_routing(monkeypatch)
        assert IndexConfig().profile_params() == before

    def test_profile_params_cover_profile_knobs(self):
        assert set(IndexConfig().profile_params()) == {
            "k",
            "window",
            "hot_fraction",
            "band_width",
            "max_occ",
        }

    def test_frozen(self):
        import pytest

        with pytest.raises(dataclasses.FrozenInstanceError):
            IndexConfig().k = 5
