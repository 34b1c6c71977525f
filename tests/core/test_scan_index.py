"""Index-routed database scans: equivalence, routing labels, warm stores."""

import pytest
from benchmarks.e2e import inputs

from repro.core.api import RepeatFinder
from repro.core.scan import DatabaseScanner
from repro.index import IndexConfig, IndexStore
from repro.scoring import GapPenalties
from repro.sequences import DNA, Sequence, random_sequence
from repro.sequences.workloads import RepeatSpec, implant_repeats


def _database(n=8, length=180, repeat_every=4):
    records = []
    for i in range(n):
        if i % repeat_every == 0:
            records.append(
                implant_repeats(
                    length,
                    RepeatSpec(unit_length=30, copies=4, substitution_rate=0.12),
                    DNA,
                    seed=i,
                    id=f"rep{i}",
                ).sequence
            )
        else:
            records.append(random_sequence(length, DNA, seed=100 + i, id=f"bg{i}"))
    return records


def _finder(min_score=80.0):
    return RepeatFinder(top_alignments=6, min_score=min_score)


def _tops(reports):
    return [
        (
            rep.id,
            [] if rep.result is None else [
                (a.r, a.score, a.pairs) for a in rep.result.top_alignments
            ],
        )
        for rep in reports
    ]


class TestEquivalence:
    def test_indexed_scan_matches_plain_scan(self):
        database = _database()
        plain = DatabaseScanner(finder=_finder()).scan(database)
        indexed_scanner = DatabaseScanner(finder=_finder(), index=IndexConfig())
        indexed = indexed_scanner.scan(database)
        assert _tops(indexed) == _tops(plain)
        stats = indexed_scanner.index_stats
        assert stats["records"] == len(database)
        assert stats["skip"] + stats["defer"] + stats["full"] == len(database)
        assert stats["skip"] > 0  # the tier actually skipped something

    def test_reports_keep_input_order(self):
        database = _database()
        reports = DatabaseScanner(finder=_finder(), index=IndexConfig()).scan(
            database
        )
        assert [rep.id for rep in reports] == [seq.id for seq in database]

    def test_zero_threshold_scans_everything(self):
        database = _database(n=6)
        scanner = DatabaseScanner(finder=_finder(min_score=0.0), index=IndexConfig())
        plain = DatabaseScanner(finder=_finder(min_score=0.0)).scan(database)
        indexed = scanner.scan(database)
        assert scanner.index_stats["skip"] == 0
        assert _tops(indexed) == _tops(plain)

    def test_index_routes_records_and_never_steers_a_search(self):
        # A benchmark protein record (read-only from its generator) whose
        # search the index's composition bounds once trimmed: a record
        # the index lets through gets the unindexed search, cell for cell.
        name, text = inputs.protein_records(1, 6, 32, 80, 111)[13]
        record = Sequence(text, "protein", id=name)

        def scan(index):
            finder = RepeatFinder(top_alignments=20, gaps=GapPenalties(8.0, 1.0))
            return DatabaseScanner(finder=finder, index=index).scan([record])[0]

        plain, indexed = scan(None), scan(IndexConfig())
        assert (name, indexed.routed) == ("prot013", "defer")
        assert _tops([indexed]) == _tops([plain])
        assert indexed.result.stats.cells == plain.result.stats.cells


class TestRoutingLabels:
    def test_labels_present_only_when_indexed(self):
        database = _database(n=6)
        plain = DatabaseScanner(finder=_finder()).scan(database)
        indexed = DatabaseScanner(finder=_finder(), index=IndexConfig()).scan(
            database
        )
        assert all(rep.routed is None for rep in plain)
        assert all(rep.routed in ("skip", "defer", "full") for rep in indexed)

    def test_implanted_records_route_full(self):
        database = _database()
        reports = DatabaseScanner(finder=_finder(), index=IndexConfig()).scan(
            database
        )
        for rep in reports:
            if rep.id.startswith("rep"):
                assert rep.routed == "full"

    def test_skip_reports_are_screened_not_failed(self):
        database = _database()
        reports = DatabaseScanner(finder=_finder(), index=IndexConfig()).scan(
            database
        )
        skipped = [rep for rep in reports if rep.routed == "skip"]
        assert skipped
        for rep in skipped:
            assert not rep.failed
            assert rep.result.top_alignments == []
            assert rep.result.repeats == []
            assert rep.result.stats.engine == "index-skip"
            assert rep.result.stats.cells == 0
        # One empty result per scan, however many records it skips.
        assert len({id(rep.result) for rep in skipped}) == 1


class TestWarmStore:
    def test_second_scan_rebuilds_nothing(self, tmp_path):
        database = _database(n=6)
        store = IndexStore(tmp_path / "index")
        cold_scanner = DatabaseScanner(
            finder=_finder(), index=IndexConfig(), index_store=store
        )
        cold = cold_scanner.scan(database)
        assert cold_scanner.index_stats["index_builds"] == len(database)
        assert cold_scanner.index_stats["index_loads"] == 0

        warm_scanner = DatabaseScanner(
            finder=_finder(),
            index=IndexConfig(),
            index_store=IndexStore(tmp_path / "index"),
        )
        warm = warm_scanner.scan(database)
        assert warm_scanner.index_stats["index_builds"] == 0
        assert warm_scanner.index_stats["index_loads"] == len(database)
        assert _tops(warm) == _tops(cold)

    def test_changed_params_rebuild(self, tmp_path):
        database = _database(n=4)
        DatabaseScanner(
            finder=_finder(),
            index=IndexConfig(),
            index_store=IndexStore(tmp_path / "index"),
        ).scan(database)
        rescanner = DatabaseScanner(
            finder=_finder(),
            index=IndexConfig(k=6),
            index_store=IndexStore(tmp_path / "index"),
        )
        rescanner.scan(database)
        assert rescanner.index_stats["index_builds"] == len(database)


class TestRank:
    def test_rank_goes_through_the_indexed_path(self):
        database = _database(n=6)
        scanner = DatabaseScanner(finder=_finder(), index=IndexConfig())
        ranked = scanner.rank(database)
        assert scanner.index_stats["records"] == len(database)
        scores = [rep.best_score for rep in ranked if not rep.failed]
        assert scores == sorted(scores, reverse=True)
