"""Cross-cutting property tests: end-to-end invariants under random inputs.

What every top list looks like, and ``extend`` splits, are checked on
every input of the conformance harness
(:func:`tests.conformance.lattice.check`);
:func:`test_top_alignment_invariants` and
:func:`test_session_split_invariance` run it here.  The others relate
whole runs to each other and to delineation.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import delineate_repeats, find_top_alignments
from repro.scoring import GapPenalties, match_mismatch
from repro.sequences import DNA, Sequence
from tests.conformance.lattice import Config, check, searches


def _scoring():
    return match_mismatch(DNA, 2.0, -1.0, wildcard_score=None), GapPenalties(2.0, 1.0)


def _random_seq(data, min_size=6, max_size=26):
    codes = data.draw(
        st.lists(st.integers(0, 3), min_size=min_size, max_size=max_size)
    )
    return Sequence(np.array(codes, dtype=np.int8), DNA)


@settings(max_examples=25, deadline=None)
@given(search=searches(max_size=26, max_k=6))
def test_top_alignment_invariants(search):
    """Nonoverlap, monotone scores, split-straddling, bottom-row ends —
    for arbitrary sequences and k."""
    check(search, Config())


@settings(max_examples=20, deadline=None)
@given(data=st.data(), k=st.integers(1, 5))
def test_delineation_invariants(data, k):
    """Copies lie within bounds, are disjoint and sorted; families have
    at least two copies."""
    ex, gaps = _scoring()
    seq = _random_seq(data, min_size=8, max_size=30)
    tops, _ = find_top_alignments(seq, k, ex, gaps)
    repeats = delineate_repeats(tops, len(seq), max_gap=1)
    for repeat in repeats:
        assert repeat.n_copies >= 2
        spans = list(repeat.copies)
        assert spans == sorted(spans)
        for s, e in spans:
            assert 1 <= s <= e <= len(seq)
        for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
            assert e0 < s1  # disjoint


@settings(max_examples=15, deadline=None)
@given(search=searches(max_size=22, max_k=6), split=st.integers(1, 5))
def test_session_split_invariance(search, split):
    """extend(a) + extend(b) == find_top_alignments(a + b) for any split."""
    k = max(search.k, 2)
    check(dataclasses.replace(search, k=k), Config(policy="extend", at=split))


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_min_score_is_a_pure_filter(data):
    """Raising min_score must yield a prefix of the unfiltered list."""
    ex, gaps = _scoring()
    seq = _random_seq(data, min_size=8, max_size=22)
    full, _ = find_top_alignments(seq, 8, ex, gaps)
    if not full:
        return
    threshold = full[0].score / 2
    filtered, _ = find_top_alignments(seq, 8, ex, gaps, min_score=threshold)
    assert [(a.r, a.pairs) for a in filtered] == [
        (a.r, a.pairs) for a in full[: len(filtered)]
    ]
    assert all(a.score > threshold for a in filtered)
    if len(filtered) < len(full):
        assert full[len(filtered)].score <= threshold


@settings(max_examples=10, deadline=None)
@given(data=st.data(), shift=st.integers(1, 5))
def test_translation_invariance_of_structure(data, shift):
    """Prepending residues shifts all coordinates but preserves the
    repeat structure found in the original window — checked through the
    weaker, always-true invariant that scores of the best alignment can
    only improve or stay equal when the sequence grows."""
    ex, gaps = _scoring()
    seq = _random_seq(data, min_size=8, max_size=20)
    grown = Sequence(
        np.concatenate([seq.codes, seq.codes[:shift]]), DNA
    )
    best_small, _ = find_top_alignments(seq, 1, ex, gaps)
    best_big, _ = find_top_alignments(grown, 1, ex, gaps)
    if best_small:
        assert best_big and best_big[0].score >= best_small[0].score
