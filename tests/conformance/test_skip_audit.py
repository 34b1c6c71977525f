"""The one inexact step, audited on the benchmark's own corpus.

The k-mer ``skip`` route (:mod:`repro.index.routing`) is a calibrated
heuristic: a record it skips is never searched.  On the default
``dna_scan_sparse`` corpus every skip must also be *proved*: the exact
block bounds at the default width (W = 32 splits a block) put every
split of a skipped record at or below ``min_score``, so the search it
skipped could have accepted nothing.  A record the proof misses is
named.  The corpus comes from the benchmark's generator, read-only.
"""

from benchmarks.e2e import inputs

from repro.core import RepeatFinder, TopAlignmentState
from repro.core.topalign import BLOCK_SPLITS
from repro.index import IndexConfig, build_profile, classify
from repro.index.routing import ROUTE_SKIP
from repro.scoring import GapPenalties
from repro.sequences import DNA, Sequence

#: ``dna_scan_sparse``'s default size and scoring (benchmarks/e2e/workloads.py).
RECORDS, LENGTH, MIN_SCORE = 18, 240, 90.0


def test_every_skipped_record_is_bounded_below_min_score():
    assert BLOCK_SPLITS == 32
    finder = RepeatFinder(gaps=GapPenalties(2.0, 1.0), min_score=MIN_SCORE)
    config = IndexConfig()
    skipped, unproved = {}, []
    for name, text in inputs.sparse_dna_records(inputs.CORPUS_SEED, RECORDS, LENGTH):
        sequence = Sequence(text, DNA, id=name)
        exchange = finder.resolve_exchange(sequence)
        profile = build_profile(sequence, **config.profile_params())
        decision = classify(profile, exchange, min_score=MIN_SCORE, config=config)
        if decision.route != ROUTE_SKIP:
            continue
        bound = TopAlignmentState(sequence, exchange, finder.gaps).start_bounds().max()
        skipped[name] = bound
        if bound > MIN_SCORE:
            unproved.append(f"{name}: block bound {bound} > {MIN_SCORE}")
    assert len(skipped) * 2 >= RECORDS  # the workload's own skip-share check
    assert not unproved, unproved
