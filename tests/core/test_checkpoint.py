"""Tests for checkpoint save/restore."""

import numpy as np
import pytest

from repro.core import TopAlignmentSession, TopAlignmentState, find_top_alignments
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.scoring import GapPenalties, blosum62, pam250
from repro.sequences import pseudo_titin
from tests.conftest import shrink_state_budget


@pytest.fixture()
def halfway(tmp_path, protein_scoring):
    ex, gaps = protein_scoring
    seq = pseudo_titin(110, seed=13)
    state = TopAlignmentState(seq, ex, gaps)
    find_top_alignments(seq, 3, ex, gaps, state=state)
    path = tmp_path / "run.npz"
    save_checkpoint(state, path)
    return seq, ex, gaps, state, path


class TestRoundTrip:
    def test_alignments_restored(self, halfway):
        seq, ex, gaps, state, path = halfway
        restored = load_checkpoint(path, seq, ex, gaps)
        assert [(a.index, a.r, a.score, a.pairs) for a in restored.found] == [
            (a.index, a.r, a.score, a.pairs) for a in state.found
        ]

    def test_triangle_restored(self, halfway):
        seq, ex, gaps, state, path = halfway
        restored = load_checkpoint(path, seq, ex, gaps)
        assert set(restored.triangle) == set(state.triangle)
        assert restored.triangle.version == state.triangle.version

    def test_bottom_rows_restored(self, halfway):
        seq, ex, gaps, state, path = halfway
        restored = load_checkpoint(path, seq, ex, gaps)
        for r in range(1, len(seq)):
            assert (r in restored.bottom_rows) == (r in state.bottom_rows)
            if r in state.bottom_rows:
                assert np.array_equal(
                    restored.bottom_rows.get(r), state.bottom_rows.get(r)
                )

    def test_continuation_matches_uninterrupted_run(self, halfway):
        """The paper-level guarantee: resume + extend == one long run."""
        seq, ex, gaps, _, path = halfway
        full, _ = find_top_alignments(seq, 6, ex, gaps)
        restored = load_checkpoint(path, seq, ex, gaps)
        resumed, _ = find_top_alignments(seq, 6, ex, gaps, state=restored)
        assert [(a.index, a.r, a.score, a.pairs) for a in resumed] == [
            (a.index, a.r, a.score, a.pairs) for a in full
        ]


class TestSpilledState:
    """A state past its budget holds only some of its bottom rows."""

    def test_round_trip_refills_nothing_and_continues_exactly(
        self, tmp_path, protein_scoring, monkeypatch
    ):
        ex, gaps = protein_scoring
        seq = pseudo_titin(110, seed=13)
        full, _ = find_top_alignments(seq, 6, ex, gaps)
        shrink_state_budget(monkeypatch)
        state = TopAlignmentState(seq, ex, gaps)
        find_top_alignments(seq, 3, ex, gaps, state=state)
        held = state.bottom_rows.resident()
        assert 0 < len(held) < len(state.bottom_rows)
        refills = state.bottom_rows.refills
        save_checkpoint(state, tmp_path / "run.npz")
        assert state.bottom_rows.refills == refills  # saves what it holds

        restored = load_checkpoint(tmp_path / "run.npz", seq, ex, gaps)
        assert [r for r in range(1, len(seq)) if r in restored.bottom_rows] == sorted(
            held
        )
        session = TopAlignmentSession.from_state(restored)
        assert restored.bottom_rows.refills == 0
        # A split whose row was not saved is never aligned: its first
        # pass, whenever it comes, is the version-0 row it had.
        session.extend(3)
        assert [(a.index, a.r, a.score, a.pairs) for a in session.alignments] == [
            (a.index, a.r, a.score, a.pairs) for a in full
        ]


class TestValidation:
    def test_wrong_sequence_rejected(self, halfway):
        _, ex, gaps, _, path = halfway
        other = pseudo_titin(110, seed=14)
        with pytest.raises(ValueError, match="different sequence"):
            load_checkpoint(path, other, ex, gaps)

    def test_wrong_scoring_rejected(self, halfway):
        seq, _, gaps, _, path = halfway
        with pytest.raises(ValueError, match="scoring model"):
            load_checkpoint(path, seq, pam250(), gaps)

    def test_wrong_gaps_rejected(self, halfway):
        seq, ex, _, _, path = halfway
        with pytest.raises(ValueError, match="scoring model"):
            load_checkpoint(path, seq, ex, GapPenalties(3, 2))

    def test_checkpoint_before_any_acceptance(self, tmp_path, protein_scoring):
        ex, gaps = protein_scoring
        seq = pseudo_titin(60, seed=1)
        state = TopAlignmentState(seq, ex, gaps)
        path = tmp_path / "empty.npz"
        save_checkpoint(state, path)
        restored = load_checkpoint(path, seq, ex, gaps)
        assert restored.found == []
        tops, _ = find_top_alignments(seq, 2, ex, gaps, state=restored)
        base, _ = find_top_alignments(seq, 2, ex, gaps)
        assert [(a.r, a.pairs) for a in tops] == [(a.r, a.pairs) for a in base]

    def test_other_format_version_rejected(self, halfway, tmp_path):
        seq, ex, gaps, _, path = halfway
        with np.load(path) as data:
            arrays = dict(data)
        arrays["format"] = np.array([1])
        old = tmp_path / "old.npz"
        np.savez_compressed(old, **arrays)
        with pytest.raises(ValueError, match="unsupported checkpoint format 1"):
            load_checkpoint(old, seq, ex, gaps)

    def test_rows_must_match_their_index(self, halfway, tmp_path):
        seq, ex, gaps, _, path = halfway
        with np.load(path) as data:
            arrays = dict(data)
        arrays["rows"] = arrays["rows"][:-1]
        torn = tmp_path / "torn.npz"
        np.savez_compressed(torn, **arrays)
        with pytest.raises(ValueError, match="do not match their index"):
            load_checkpoint(torn, seq, ex, gaps)

    def test_a_flipped_npy_header_length_is_caught(self, halfway, tmp_path):
        """A shorter header length shifts where numpy reads the rows
        from, and numpy then stops short of the member's end, where zip
        would check its CRC-32: every member is read to its end first."""
        seq, ex, gaps, _, path = halfway
        raw = bytearray(path.read_bytes())
        header_length = raw.rindex(b"\x93NUMPY") + 8  # the last member: rows
        raw[header_length] ^= 2
        flipped = tmp_path / "flipped.npz"
        flipped.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="rows.npy is damaged"):
            load_checkpoint(flipped, seq, ex, gaps)


def test_archive_members_do_not_grow_with_the_search(halfway):
    """A member per row or alignment made a 100-residue checkpoint 5 ms."""
    *_, path = halfway
    with np.load(path) as data:
        assert len(data.files) == 8
