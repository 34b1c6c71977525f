"""The content-addressed index store: keying, warm reloads, versioning."""

import pytest

from repro.index import INDEX_VERSION, IndexConfig, IndexStore, index_digest
from repro.index import routing
from repro.index.store import sequence_digest
from repro.sequences import DNA, Sequence, random_sequence
from tests.index.test_routing import recalibrate_routing


@pytest.fixture()
def store(tmp_path):
    return IndexStore(tmp_path / "index")


def _seq(seed=0):
    return random_sequence(120, DNA, seed=seed, id=f"s{seed}")


class TestDigests:
    def test_sequence_digest_depends_on_content(self):
        assert sequence_digest(_seq(0)) != sequence_digest(_seq(1))
        assert sequence_digest(_seq(0)) == sequence_digest(_seq(0))

    def test_sequence_digest_is_alphabet_qualified(self):
        from repro.sequences import RNA

        assert sequence_digest(Sequence("ACAC", DNA)) != sequence_digest(
            Sequence("ACAC", RNA)
        )

    def test_key_includes_profile_params(self, monkeypatch):
        seq = _seq(0)
        default = index_digest(seq, IndexConfig())
        assert default != index_digest(seq, IndexConfig(k=4))
        monkeypatch.setattr(routing, "WINDOW", 64)
        assert default != index_digest(seq, IndexConfig())

    def test_key_excludes_routing_knobs(self, monkeypatch):
        # Routing calibration must not invalidate stored artifacts.
        seq = _seq(0)
        default = index_digest(seq, IndexConfig())
        recalibrate_routing(monkeypatch)
        assert index_digest(seq, IndexConfig()) == default


class TestBuildOrLoad:
    def test_cold_builds_then_warm_loads(self, store):
        seq = _seq(1)
        config = IndexConfig()
        first, built_first = store.build_or_load(seq, config)
        second, built_second = store.build_or_load(seq, config)
        assert built_first and not built_second
        assert first == second
        assert store.builds == 1
        assert store.hits == 1
        assert store.entries() == 1

    def test_store_survives_process_boundary(self, tmp_path):
        seq = _seq(2)
        config = IndexConfig()
        profile, built = IndexStore(tmp_path / "idx").build_or_load(seq, config)
        assert built
        # A brand-new store object over the same directory is warm.
        reloaded, built_again = IndexStore(tmp_path / "idx").build_or_load(
            seq, config
        )
        assert not built_again
        assert reloaded == profile

    def test_distinct_sequences_get_distinct_artifacts(self, store):
        config = IndexConfig()
        store.build_or_load(_seq(1), config)
        store.build_or_load(_seq(2), config)
        assert store.entries() == 2

    def test_version_mismatch_misses(self, store):
        seq = _seq(3)
        config = IndexConfig()
        store.build_or_load(seq, config)
        # Corrupt the stored payload's version: the loader must treat
        # it as absent, not deserialise stale semantics.
        digest = index_digest(seq, config)
        payload = store.cache.get(digest)
        payload["version"] = INDEX_VERSION + 1
        store.cache.put(digest, payload)
        store.cache._mem.clear()  # defeat the LRU front
        assert store.load(seq, config) is None

    def test_malformed_payload_misses(self, store):
        seq = _seq(4)
        config = IndexConfig()
        digest = index_digest(seq, config)
        store.cache.put(digest, {"version": INDEX_VERSION, "profile": {"k": "x"}})
        assert store.load(seq, config) is None
        assert store.misses == 1

    def test_stats_shape(self, store):
        store.build_or_load(_seq(5), IndexConfig())
        stats = store.stats()
        assert stats["builds"] == 1
        assert stats["entries"] == 1
        assert stats["build_seconds"] >= 0.0
