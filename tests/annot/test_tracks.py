"""Profile tracks: the weighted-sum consistency contract and friends."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.annot.tracks import (
    ProfileTrack,
    auto_window,
    build_track,
    coverage_depth,
    render_wig,
)


def _window_width(track: ProfileTrack, index: int) -> int:
    start, end = track.window_span(index)
    return end - start + 1


class TestCoverageDepth:
    def test_counts_overlapping_copies(self):
        depth = coverage_depth(10, [(1, 5), (4, 8)])
        assert depth.tolist() == [1, 1, 1, 2, 2, 1, 1, 1, 0, 0]

    def test_rejects_out_of_bounds_copy(self):
        with pytest.raises(ValueError, match="outside sequence"):
            coverage_depth(10, [(5, 11)])
        with pytest.raises(ValueError, match="outside sequence"):
            coverage_depth(10, [(0, 3)])

    def test_rejects_inverted_span(self):
        with pytest.raises(ValueError):
            coverage_depth(10, [(6, 5)])


class TestBuildTrack:
    def test_weighted_sum_equals_copy_residues(self):
        families = [(0, ((1, 30), (41, 70))), (1, ((10, 49),))]
        track = build_track("s", 100, families, window=7)
        weighted = sum(
            value * _window_width(track, i)
            for i, value in enumerate(track.values)
        )
        copy_residues = 30 + 30 + 40
        assert weighted == pytest.approx(copy_residues)

    def test_summary_stats(self):
        track = build_track("s", 10, [(0, ((1, 4),)), (1, ((3, 6),))], window=5)
        assert track.n_families == 2
        assert track.n_copies == 2
        assert track.max_depth == 2
        assert track.repetitiveness == pytest.approx(0.6)
        assert track.mean_depth == pytest.approx(0.8)

    def test_auto_window_targets_about_120_windows(self):
        assert auto_window(50) == 1
        assert auto_window(120) == 1
        assert auto_window(121) == 2
        assert 100 <= 36000 // auto_window(36000) <= 120

    def test_zero_window_uses_auto(self):
        track = build_track("s", 360, [], window=0)
        assert track.window == auto_window(360)
        assert len(track.values) == -(-360 // track.window)

    def test_window_span_covers_sequence_exactly(self):
        track = build_track("s", 23, [], window=5)
        spans = [track.window_span(i) for i in range(len(track.values))]
        assert spans[0] == (1, 5)
        assert spans[-1] == (21, 23)
        covered = [p for s, e in spans for p in range(s, e + 1)]
        assert covered == list(range(1, 24))

    def test_to_dict_round_trips_values(self):
        track = build_track("s", 12, [(0, ((1, 6),))], window=4)
        payload = track.to_dict()
        assert payload["id"] == "s"
        assert payload["values"] == list(track.values)
        assert payload["window"] == 4
        # Whole window means are written as integers, fractions as is.
        assert json.dumps(payload["values"]) == "[1, 0.5, 0]"

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_weighted_sum_identity_holds_for_any_copies(self, data):
        length = data.draw(st.integers(1, 200))
        n = data.draw(st.integers(0, 8))
        copies = []
        for _ in range(n):
            start = data.draw(st.integers(1, length))
            end = data.draw(st.integers(start, length))
            copies.append((start, end))
        window = data.draw(st.integers(0, 17))
        track = build_track("s", length, [(0, tuple(copies))], window=window)
        weighted = sum(
            value * _window_width(track, i)
            for i, value in enumerate(track.values)
        )
        assert weighted == pytest.approx(
            sum(e - s + 1 for s, e in copies)
        )


class TestRenderWig:
    def test_fixed_step_blocks(self):
        tracks = [
            build_track("alpha", 6, [(0, ((1, 3),))], window=3),
            build_track("beta", 4, [], window=2),
        ]
        text = render_wig(tracks)
        lines = text.splitlines()
        assert lines[0].startswith("track type=wiggle_0")
        assert "fixedStep chrom=alpha start=1 step=3 span=3" in lines
        assert "fixedStep chrom=beta start=1 step=2 span=2" in lines
        assert text.endswith("\n")
