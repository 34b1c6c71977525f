"""Job specs and content addressing."""

import dataclasses
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.service import ALGORITHM_VERSION, JobSpec, SpecError, job_digest
from repro.service.protocol import finder_for, result_to_dict


def _spec(**overrides):
    payload = {"sequence": "ACDEFGHIKLMNPQRSTVWY" * 3}
    payload.update(overrides)
    return JobSpec(**payload)


class TestSpecValidation:
    def test_minimal_spec(self):
        spec = _spec()
        assert spec.alphabet == "protein"
        assert spec.top_alignments == 20

    def test_rejects_empty_sequence(self):
        with pytest.raises(SpecError):
            JobSpec(sequence="")

    def test_rejects_bad_alphabet(self):
        with pytest.raises(SpecError):
            _spec(alphabet="klingon")

    def test_rejects_unencodable_residue(self):
        with pytest.raises(SpecError):
            JobSpec(sequence="ACGTU", alphabet="dna")

    def test_rejects_protein_matrix_on_dna(self):
        with pytest.raises(SpecError):
            JobSpec(sequence="ACGT" * 5, alphabet="dna", matrix="blosum62")

    def test_old_algorithm_rejected(self):
        # The O(n^4) baseline cannot checkpoint, cancel or drain: it is a
        # test oracle, never a job.  Saying "new" stays legal.
        with pytest.raises(SpecError, match="algorithm"):
            _spec(algorithm="old")
        assert _spec(algorithm="new") == _spec()

    @pytest.mark.parametrize("engine", ["bogus", "gotoh", "lanes-sse2"])
    def test_engine_outside_the_table_rejected(self, engine):
        with pytest.raises(SpecError, match="engine"):
            _spec(engine=engine)
        with pytest.raises(SpecError, match="engine"):
            JobSpec.from_dict({"sequence": "ACDE" * 10, "engine": engine})

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(SpecError, match="unknown"):
            JobSpec.from_dict({"sequence": "ACDE" * 10, "jitter": 3})

    def test_from_dict_requires_sequence(self):
        with pytest.raises(SpecError, match="sequence"):
            JobSpec.from_dict({"alphabet": "protein"})


_FIELDS = sorted(JobSpec.__dataclass_fields__)
_HOSTILE = [None, True, "hi", [], [1], {}, float("nan"), float("inf"), -float("inf"), 2.5]


def _spec_or_spec_error(field, value):
    """A spec with ``field`` set to ``value`` is either refused with a
    :class:`SpecError` or valid all the way: digestible, runnable, and
    plain JSON (no NaN or infinity)."""
    payload = {"sequence": "ACDEFGHIKLMNPQRSTVWY" * 3, field: value}
    try:
        spec = JobSpec.from_dict(payload)
    except SpecError:
        return
    job_digest(spec)
    finder_for(spec)
    json.dumps(spec.to_dict(), allow_nan=False)


class TestHostileFields:
    def test_every_field_and_hostile_value(self):
        for field in _FIELDS:
            for value in _HOSTILE:
                _spec_or_spec_error(field, value)

    @given(
        field=st.sampled_from(_FIELDS),
        value=st.one_of(
            st.none(),
            st.booleans(),
            st.integers(),
            st.floats(),
            st.text(max_size=8),
            st.lists(st.integers(), max_size=2),
            st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
        ),
    )
    def test_any_json_value_in_any_field(self, field, value):
        _spec_or_spec_error(field, value)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("min_score", None),
            ("priority", "hi"),
            ("group", 2.5),
            ("group", True),
            ("gap_extend", float("inf")),
            ("gap_open", float("nan")),
            ("index", 1),
            ("seq_id", None),
        ],
    )
    def test_refused(self, field, value):
        with pytest.raises(SpecError, match=field):
            JobSpec.from_dict({"sequence": "ACDEFG", field: value})


class TestDigest:
    def test_stable_across_calls(self):
        assert job_digest(_spec()) == job_digest(_spec())
        assert len(job_digest(_spec())) == 64

    def test_case_insensitive_sequence(self):
        upper = _spec()
        lower = JobSpec(sequence=upper.sequence.lower())
        assert job_digest(upper) == job_digest(lower)

    def test_execution_knobs_do_not_fragment_cache(self):
        base = _spec()
        # Flipping the default engine/group (vector/1 -> lanes/8) moved
        # no digest: cache entries and idempotent replays carry over.
        for knob in (
            {"engine": "lanes"},
            {"engine": "vector"},
            {"group": 8},
            {"group": 1},
            {"priority": 5},
            {"seq_id": "other-name"},
        ):
            assert job_digest(_spec(**knob)) == job_digest(base), knob

    def test_digests_of_earlier_releases_still_address_the_same_job(self):
        # Computed at the commit that still served algorithm="old": the
        # digest payload keeps its literal "algorithm": "new" entry.
        assert _spec().digest_fields()["algorithm"] == "new"
        assert job_digest(JobSpec(sequence="ACDE" * 10)) == (
            "613511afde1c12908e275e4d9a7239e1f0b604375b87da1ae9730944020436bf"
        )
        assert job_digest(
            JobSpec(sequence="ACGT" * 10, alphabet="dna", top_alignments=3, min_score=5.0)
        ) == "cbbed475cda809ccb18625f72f32e6458c95168fc40b3a53873e4ec3636a5b86"

    def test_result_affecting_knobs_change_digest(self):
        base = _spec()
        for knob in (
            {"top_alignments": 7},
            {"gap_open": 10.0},
            {"gap_extend": 2.0},
            {"matrix": "blosum50"},
            {"min_score": 5.0},
            {"max_gap": 3},
            {"min_score_fraction": 0.5},
        ):
            assert job_digest(_spec(**knob)) != job_digest(base), knob

    def test_digest_includes_algorithm_version(self):
        assert _spec().digest_fields()["version"] == ALGORITHM_VERSION


class TestResultPayload:
    def test_round_trips_through_json(self):
        from repro.core import RepeatFinder
        from repro.sequences import pseudo_titin

        spec = JobSpec(sequence=pseudo_titin(60, seed=2).text, top_alignments=3)
        result = RepeatFinder(top_alignments=3).find(
            pseudo_titin(60, seed=2)
        )
        payload = result_to_dict(result, digest=job_digest(spec), spec=spec)
        # Every leaf must be a plain JSON type — no numpy scalars.
        assert json.loads(json.dumps(payload)) == payload
        assert payload["length"] == 60
        assert len(payload["top_alignments"]) == len(result.top_alignments)
        assert payload["stats"]["alignments"] == result.stats.alignments

    def test_spec_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            _spec().sequence = "MUTATED"
