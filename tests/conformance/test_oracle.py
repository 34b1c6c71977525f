"""The search against a repeat finder that shares no code with it.

Under match/mismatch scoring an exact repeat of ``L`` residues whose
copies do not overlap is an alignment of ``L`` matches inside one split
(``r = i + L``, the first copy's last residue), ending in its bottom
row.  The suffix-array finder (:mod:`tests.conformance.repeats`) lists
those repeats without knowing anything of scores or splits, so two
properties of the algorithm itself follow:

* the first top scores at least ``match ×`` the longest such repeat;
* a run to exhaustion shares a pair with every such repeat scoring
  above ``min_score`` — unless that repeat's end is an Appendix A shadow
  (:func:`test_a_run_to_exhaustion_touches_every_repeat`).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import TopAlignmentSession, find_top_alignments
from tests.conformance.lattice import (
    DNA_LETTERS,
    PROTEIN_LETTERS,
    Scoring,
    Search,
    texts,
)
from tests.conformance.repeats import lcp_array, longest_repeat, repeats, suffix_array
from tests.conftest import brute_force_matrix


@st.composite
def match_searches(draw) -> Search:
    """An input under +match / mismatch scoring, any gap penalties."""
    protein = draw(st.booleans())
    match = draw(st.integers(1, 6))
    scoring = Scoring(
        "match",
        float(match),
        float(draw(st.integers(-6, 0))),
        float(draw(st.integers(0, 8))),
        float(draw(st.sampled_from([0, 0.5, 1, 2]))),
    )
    return Search(
        draw(texts(PROTEIN_LETTERS if protein else DNA_LETTERS)),
        protein,
        scoring,
        min_score=draw(st.integers(0, 8)) * match,
    )


@given(st.text("ACG", max_size=30))
def test_the_finder_agrees_with_brute_force(text):
    sa = suffix_array(text)
    assert [text[i:] for i in sa] == sorted(text[i:] for i in range(len(text)))
    lcp = lcp_array(text, sa)
    for k in range(1, len(text)):
        a, b = text[sa[k - 1] :], text[sa[k] :]
        assert a[: lcp[k]] == b[: lcp[k]] and a[lcp[k] : lcp[k] + 1] != b[lcp[k] : lcp[k] + 1]
    best = max(
        (
            length
            for i in range(len(text))
            for j in range(i + 1, len(text))
            for length in range(1, j - i + 1)
            if text[i : i + length] == text[j : j + length] and j + length <= len(text)
        ),
        default=0,
    )
    assert longest_repeat(text) == best


@settings(deadline=None)
@given(search=match_searches())
def test_the_first_top_scores_the_longest_repeat(search):
    floor = search.scoring.match * longest_repeat(search.text)
    tops, _ = find_top_alignments(
        search.sequence, 1, search.exchange, search.gaps, min_score=search.min_score
    )
    if floor > search.min_score:
        assert tops and tops[0].score >= floor


@settings(deadline=None)
@given(search=match_searches())
@example(search=Search("AAAACAAAAC", scoring=Scoring("match", 1.0, 0.0, 0.0, 0.5)))
def test_a_run_to_exhaustion_touches_every_repeat(search):
    """Why the one exception is the shadow, and only it: if no pair of a
    repeat ``(i, j, L)`` was accepted, none of its diagonal cells is
    overridden in split ``r = i + L``, so the cell where it ends in that
    split's bottom row, ``x = j + L - r``, still holds at least
    ``match × L`` (Equation 1 never falls below an unbroken path).  Were
    that cell valid — equal to its first-pass value — the split's valid
    score would beat ``min_score``, and the run could not be exhausted
    (stale scores are upper bounds).  So an untouched repeat ends in a
    shadow: its first-pass value came through cells an acceptance has
    since zeroed, and Appendix A rejects it.  Shrunk counterexample:
    ``AAAACAAAAC``, +1/0, gaps 0/0.5, repeat ``(5, 8, 1)``: split 6,
    column 3 reads 2.5 in the first pass and 2.0 at the end.  The shadow
    is decided by the brute-force Equation 1, not by an engine.
    """
    session = TopAlignmentSession(
        search.sequence, search.exchange, search.gaps, min_score=search.min_score
    )
    while session.extend(len(search.text)):
        pass
    assert session.exhausted
    touched = {pair for top in session.alignments for pair in top.pairs}
    for repeat in repeats(search.text):
        if search.scoring.match * repeat.length > search.min_score:
            if not touched.intersection(repeat.pairs()):
                assert _ends_in_a_shadow(session.state, repeat), repeat


def _ends_in_a_shadow(state, repeat) -> bool:
    r = repeat.i + repeat.length
    x = repeat.j + repeat.length - r
    first = brute_force_matrix(state.problem_for(r, with_override=False))[-1, x]
    return brute_force_matrix(state.problem_for(r))[-1, x] != first
