"""Tests for the bottom-row store and shadow-validity rule."""

import numpy as np
import pytest

from repro.core import BottomRowStore


class TestStore:
    def test_put_get_roundtrip(self):
        store = BottomRowStore(6)
        row = np.array([0.0, 1, 2, 3], dtype=np.float64)
        store.put(3, row)
        assert 3 in store
        assert np.array_equal(store.get(3), row)

    def test_rows_are_frozen_copies(self):
        store = BottomRowStore(6)
        row = np.array([0.0, 1, 2, 3])
        store.put(3, row)
        row[1] = 99  # caller mutation must not leak in
        assert store.get(3)[1] == 1
        with pytest.raises(ValueError):
            store.get(3)[0] = 5

    def test_write_once(self):
        store = BottomRowStore(6)
        store.put(3, np.zeros(4))
        with pytest.raises(ValueError, match="already stored"):
            store.put(3, np.zeros(4))

    def test_length_validation(self):
        store = BottomRowStore(6)
        with pytest.raises(ValueError, match="length"):
            store.put(3, np.zeros(5))

    def test_split_bounds(self):
        store = BottomRowStore(6)
        with pytest.raises(ValueError):
            store.put(0, np.zeros(7))
        with pytest.raises(ValueError):
            store.put(6, np.zeros(1))

    def test_min_length(self):
        with pytest.raises(ValueError):
            BottomRowStore(1)

    def test_len_and_nbytes(self):
        store = BottomRowStore(6)
        store.put(3, np.zeros(4))
        store.put(4, np.zeros(3))
        assert len(store) == 2
        assert store.nbytes == 7 * 8


class TestShadowValidity:
    """Appendix A: 'unequal values signify shadow realignments'."""

    def test_unchanged_cells_valid(self):
        store = BottomRowStore(6)
        store.put(3, np.array([0.0, 5, 7, 2]))
        mask = store.valid_mask(3, np.array([0.0, 5, 4, 2]))
        assert np.array_equal(mask, [True, True, False, True])

    def test_score_is_max_of_valid(self):
        store = BottomRowStore(6)
        store.put(3, np.array([0.0, 5, 7, 2]))
        # The 7 dropped to 4 (shadow); best valid is the untouched 5.
        assert store.score_of(3, np.array([0.0, 5, 4, 2])) == 5.0

    def test_all_shadowed_scores_zero(self):
        store = BottomRowStore(6)
        store.put(3, np.array([0.0, 5, 7, 2]))
        assert store.score_of(3, np.array([1.0, 4, 6, 1])) == 0.0

    def test_identical_row_scores_original_max(self):
        store = BottomRowStore(6)
        row = np.array([0.0, 5, 7, 2])
        store.put(3, row)
        assert store.score_of(3, row.copy()) == 7.0

    def test_shape_mismatch_rejected(self):
        store = BottomRowStore(6)
        store.put(3, np.zeros(4))
        with pytest.raises(ValueError, match="mismatch"):
            store.valid_mask(3, np.zeros(3))

    def test_missing_split_raises(self):
        store = BottomRowStore(6)
        with pytest.raises(KeyError):
            store.get(2)


def _rows(m):
    """A first-pass-shaped row for every split of a length-``m`` sequence."""
    return {r: np.arange(m - r + 1, dtype=np.float64) + r for r in range(1, m)}


class TestEviction:
    """Appendix A's linear-memory store: rows past ``capacity`` bytes are
    evicted least recently used first and refilled on demand."""

    def _store(self, m=12, capacity=3 * 8 * 12):
        rows = _rows(m)
        refilled = []

        def refill(r):
            refilled.append(r)
            return rows[r]

        return BottomRowStore(m, capacity=capacity, refill=refill), rows, refilled

    def test_put_get_roundtrip(self):
        store, rows, refilled = self._store()
        store.put(4, rows[4])
        assert 4 in store
        assert np.array_equal(store.get(4), rows[4])
        assert refilled == [] and store.refills == 0

    def test_eviction_and_refill(self):
        store, rows, refilled = self._store()
        for r in (1, 2, 3, 4, 5):  # 12 + 11 + 10 + 9 + 8 values, 288 bytes held
            store.put(r, rows[r])
        assert sorted(store.resident()) == [3, 4, 5]
        assert len(store) == 5 and all(r in store for r in rows if r <= 5)
        # r=1 was evicted; get() refills it, exactly, and it is resident again.
        assert np.array_equal(store.get(1), rows[1])
        assert refilled == [1] and store.refills == 1
        assert 1 in store.resident()
        with pytest.raises(ValueError):
            store.get(1)[0] = 5

    def test_least_recently_used_goes_first(self):
        store, rows, _ = self._store()
        for r in (1, 2, 3):
            store.put(r, rows[r])
        store.get(1)
        store.put(4, rows[4])
        assert sorted(store.resident()) == [1, 3, 4]

    def test_memory_stays_bounded(self):
        store, rows, _ = self._store(m=40, capacity=400)
        for r, row in rows.items():
            store.put(r, row)
            assert store.nbytes <= 400 or len(store.resident()) == 1
        assert store.nbytes == sum(row.nbytes for row in store.resident().values())
        assert store.nbytes < sum(row.nbytes for row in rows.values()) / 5

    def test_a_row_past_the_capacity_is_still_held(self):
        store, rows, _ = self._store(capacity=8)
        store.put(1, rows[1])
        store.put(2, rows[2])
        assert list(store.resident()) == [2]
        assert np.array_equal(store.get(1), rows[1])
        assert list(store.resident()) == [1]

    def test_maxima_need_no_row(self):
        store, rows, refilled = self._store(capacity=8)
        for r, row in rows.items():
            store.put(r, row)
        assert [store.max_of(r) for r in rows] == [row.max() for row in rows.values()]
        assert refilled == []

    def test_write_once(self):
        store, rows, refilled = self._store()
        for r in (1, 2, 3, 4, 5):
            store.put(r, rows[r])
        # A resident row and an evicted one are both stored for good.
        for r in (5, 1):
            with pytest.raises(ValueError, match="already stored"):
                store.put(r, rows[r])
        assert 1 not in store.resident() and refilled == []
        assert len(store) == 5

    def test_validation(self):
        store, rows, _ = self._store()
        with pytest.raises(ValueError):
            store.put(0, np.zeros(13))
        with pytest.raises(ValueError):
            store.put(4, np.zeros(7))
        store.put(4, rows[4])
        with pytest.raises(ValueError, match="already stored"):
            store.put(4, rows[4])
        with pytest.raises(KeyError):
            store.get(5)
        with pytest.raises(ValueError, match="refill"):
            BottomRowStore(6, capacity=100)
