"""The one ``RepeatResult`` codec and the three wire forms around it."""

import json
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro.cluster.protocol import report_to_dict
from repro.core.result import (
    Repeat,
    RepeatResult,
    RunStats,
    TopAlignment,
    render_summary,
)
from repro.core.scan import load_scan_payload, scan_to_payload
from repro.service.protocol import JobSpec, job_digest, result_to_dict

from . import codec_corpus

PARENT = json.loads(
    (Path(__file__).parent / "fixtures" / "wire_forms_parent.json").read_text()
)


# -- round trip ---------------------------------------------------------------

_counts = st.integers(min_value=0, max_value=10**9)


@st.composite
def _alignments(draw):
    r = draw(st.integers(min_value=1, max_value=500))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=r),
                st.integers(min_value=r + 1, max_value=r + 500),
            ),
            max_size=6,
        )
    )
    return TopAlignment(
        index=draw(st.integers(min_value=0, max_value=50)),
        r=r,
        score=draw(st.floats(allow_nan=False, allow_infinity=False, width=64)),
        pairs=tuple(pairs),
    )


_repeats = st.builds(
    Repeat,
    family=st.integers(min_value=0, max_value=50),
    copies=st.lists(
        st.tuples(st.integers(1, 500), st.integers(1, 500)), max_size=5
    ).map(tuple),
    columns=st.integers(min_value=0, max_value=500),
)

_stats = st.builds(
    RunStats,
    alignments=_counts,
    realignments=_counts,
    cells=_counts,
    tracebacks=_counts,
    realignments_per_top=st.lists(_counts, max_size=5),
    engine_seconds=st.floats(min_value=0.0, max_value=1e6),
    engine=st.sampled_from(["", "scalar", "vector", "lanes[int32]", "index-skip"]),
    group=st.integers(min_value=1, max_value=64),
    speculative_waste=_counts,
    pruned_cells=_counts,
    pruned_lanes=_counts,
)

_results = st.builds(
    RepeatResult,
    top_alignments=st.lists(_alignments(), max_size=4),
    repeats=st.lists(_repeats, max_size=3),
    stats=_stats,
)


@settings(max_examples=150, deadline=None)
@given(_results)
def test_round_trip(result):
    assert RepeatResult.from_dict(result.to_dict()) == result
    # ... through real JSON text as well: floats are shortest-repr exact.
    assert RepeatResult.from_dict(json.loads(json.dumps(result.to_dict()))) == result


@settings(max_examples=50, deadline=None)
@given(_results)
def test_round_trip_without_stats_keeps_alignments_and_families(result):
    rebuilt = RepeatResult.from_dict(result.to_dict(stats=False))
    assert rebuilt.top_alignments == result.top_alignments
    assert rebuilt.repeats == result.repeats
    assert rebuilt.stats == RunStats()


def test_from_dict_reads_every_envelope():
    (rich, *_), spec = codec_corpus.results(), JobSpec(**codec_corpus.SPECS[1])
    service = result_to_dict(rich, digest=codec_corpus.DIGEST, spec=spec)
    assert RepeatResult.from_dict(service) == rich
    document = scan_to_payload(codec_corpus.reports(), codec_corpus.sequences())
    loaded = load_scan_payload(json.loads(json.dumps(document)))
    assert list(loaded.reports) == codec_corpus.reports()
    assert [s and s.id for s in loaded.sequences] == ["rec1", "rec2", None, "bad"]


# -- the wire forms keep what they had ----------------------------------------


def _assert_keeps(parent, current, where="$"):
    """Every key of ``parent`` is in ``current`` with the same type and
    value (``current`` may hold more)."""
    assert type(current) is type(parent), where
    if isinstance(parent, dict):
        for key, value in parent.items():
            assert key in current, f"{where}.{key} is gone"
            _assert_keeps(value, current[key], f"{where}.{key}")
    elif isinstance(parent, list):
        assert len(current) == len(parent), where
        for index, (old, new) in enumerate(zip(parent, current)):
            _assert_keeps(old, new, f"{where}[{index}]")
    else:
        assert current == parent, where


def _keys(form, found=None):
    found = set() if found is None else found
    if isinstance(form, dict):
        for key, value in form.items():
            found.add(key)
            _keys(value, found)
    elif isinstance(form, list):
        for value in form:
            _keys(value, found)
    return found


def test_wire_forms_keep_every_key_type_and_value():
    current = codec_corpus.wire_forms(
        result_to_dict, report_to_dict, scan_to_payload, job_digest, JobSpec
    )
    current = json.loads(json.dumps(current))  # what a peer or a file receives
    for form in ("service", "cluster", "scan"):
        _assert_keeps(PARENT[form], current[form], form)
    # A form may only have gained keys another form already had.
    had = _keys([PARENT["service"], PARENT["cluster"], PARENT["scan"]])
    for form in ("service", "cluster", "scan"):
        assert _keys(current[form]) <= had, form
    # Work counters stay out of the cluster report: they (and
    # engine_seconds) differ between runs that must compare equal.
    assert all("stats" not in (r["result"] or {}) for r in current["cluster"])


def test_job_digests_are_the_parents():
    specs = [JobSpec(**kwargs) for kwargs in codec_corpus.SPECS]
    assert [job_digest(spec) for spec in specs] == PARENT["digests"]


# -- one renderer ---------------------------------------------------------------


def test_summary_renders_from_the_dict_form():
    rich = codec_corpus.results()[0]
    spec = JobSpec(**codec_corpus.SPECS[1])
    cached = result_to_dict(rich, digest=codec_corpus.DIGEST, spec=spec)
    fresh = {"sequence_id": "rec1", "length": 30, **rich.to_dict()}
    head, *families = render_summary(cached).splitlines()
    assert head == ">rec1 length=30 digest=abababababababab"
    assert render_summary(fresh).splitlines() == [">rec1 length=30", *families]
    assert families == [
        "  top alignments: 2  repeat families: 2  alignments computed: 41",
        "  family 0: 3 copies (~10 aa, 9 conserved cols): 1-10, 11-20, 21-30",
        "  family 1: 2 copies (~4 aa, 3 conserved cols): 3-5, 13-16",
    ]
