"""The engine table at named points: every engine reproduces ``scalar``.

The paper's lane-parallel kernels compute "exactly the same" matrices as
the conventional code, and so must ours, bit for bit on integral
scores.  The conformance harness (``tests/conformance``) draws batches
and searches for this; :class:`TestClosedTable` keeps the contract of
``repro.align``'s three-name table at fixed points — byte-equal bottom
rows against ``scalar`` and byte-equal tops against the O(n⁴) oracle, at
every batch width and requested lane work type, on both sides of every
width promotion.  The striped comparator (figure code in
``benchmarks/comparators.py``) is held to the same rows.
"""

import numpy as np
import pytest
from benchmarks.comparators import StripedEngine
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import (
    ENGINE_NAMES,
    AlignmentProblem,
    LanesEngine,
    ScalarEngine,
    VectorEngine,
)
from repro.align.profile import QueryProfile
from repro.core import (
    DenseOverrideTriangle,
    SparseOverrideTriangle,
    old_find_top_alignments,
)
from repro.scoring import GapPenalties, match_mismatch
from repro.sequences import DNA, RepeatSpec, implant_repeats
from repro.sequences.workloads import pseudo_titin
from tests.conformance.lattice import (
    BLOSUM62,
    Config,
    Scoring,
    Search,
    assert_rows_equal_scalar,
    check,
    key,
    reference,
)

ENGINES = [
    VectorEngine(),
    LanesEngine(lanes=4, dtype="float64"),
    LanesEngine(lanes=4, dtype="int32"),
    LanesEngine(lanes=4, dtype="int16"),
    StripedEngine(stripe=7),
    StripedEngine(stripe=64),
]

#: A 100-nt string whose tops 2–3 differ between Equation 1 and the
#: textbook Gotoh recurrence (``test_gotoh.py``): a sensitive probe for an
#: engine that computes anything but Equation 1.
REPRODUCER = (
    "ACTGGTCGAGAGGATGACGACTATACTATGGGCTGATTGGAAACTAGTGAGGATTGACGACTATAGGCTA"
    "TGGGCTGTGGAAACTATAGCACTCGCATAA"
)

#: The closed table x requested lane work type: names resolve through
#: ``get_engine`` (the default, int32); the others are ``LanesEngine``
#: configurations.
TABLE = [(name, None) for name in ENGINE_NAMES] + [
    ("lanes", "int32"),
    ("lanes", "int16"),
    ("lanes", "float64"),
]


def _table_engine(name, dtype, group):
    return Config(engine=name, dtype=dtype, group=group).make_engine()


def _random_problem(rng, ex, gaps, max_len=40):
    s1 = rng.integers(0, 4, rng.integers(1, max_len)).astype(np.int8)
    s2 = rng.integers(0, 4, rng.integers(1, max_len)).astype(np.int8)
    return AlignmentProblem(s1, s2, ex, gaps)


@pytest.mark.parametrize("engine", ENGINES, ids=lambda e: repr(e))
class TestAgainstScalar:
    def test_figure2(self, engine, figure2_problem):
        assert_rows_equal_scalar(engine, [figure2_problem])

    def test_random_dna(self, engine, dna_scoring):
        rng = np.random.default_rng(42)
        for _ in range(10):
            assert_rows_equal_scalar(engine, [_random_problem(rng, *dna_scoring)])

    def test_protein_blosum(self, engine, protein_scoring):
        seq = pseudo_titin(70, seed=3)
        problem = AlignmentProblem(seq.codes[:30], seq.codes[30:], *protein_scoring)
        assert_rows_equal_scalar(engine, [problem])

    def test_empty_sequences(self, engine, dna_scoring):
        ex, gaps = dna_scoring
        p = AlignmentProblem(
            np.array([], dtype=np.int8), DNA.encode("ACG"), ex, gaps
        )
        assert np.array_equal(engine.last_row(p), np.zeros(4))


#: The searches every table entry must answer with the O(n⁴) oracle's tops.
CASES = {
    "reproducer": Search(REPRODUCER, k=3),
    "tandem_dna": Search("ATGCATGCATGC", k=3),
    "repeat_protein": Search(
        implant_repeats(
            120, RepeatSpec(unit_length=25, copies=3, substitution_rate=0.3), seed=7
        ).sequence.text,
        protein=True,
        scoring=BLOSUM62,
        k=4,
    ),
}


@pytest.fixture(scope="module")
def oracle_cases():
    """The plainest search reproduces the O(n⁴) oracle on every case
    before any other engine is compared with it (the oracle fills with
    the default engine, whose rows this module holds to ``scalar``)."""
    for search in CASES.values():
        old, _ = old_find_top_alignments(
            search.sequence, search.k, search.exchange, search.gaps
        )
        assert key(old) == reference(search)
    return CASES


@pytest.mark.parametrize("group", [1, 4, 8])
@pytest.mark.parametrize(
    "name,dtype", TABLE, ids=[f"{n}-{d or 'default'}" for n, d in TABLE]
)
class TestClosedTable:
    def test_bottom_rows_byte_equal_scalar(self, name, dtype, group, protein_scoring):
        seq = pseudo_titin(64, seed=11)
        problems = [
            AlignmentProblem(seq.codes[:r], seq.codes[r:], *protein_scoring)
            for r in range(20, 20 + group)
        ]
        assert_rows_equal_scalar(_table_engine(name, dtype, group), problems)

    @pytest.mark.parametrize("case", ["reproducer", "tandem_dna", "repeat_protein"])
    def test_tops_byte_equal_oracle(self, name, dtype, group, case, oracle_cases):
        check(oracle_cases[case], Config(engine=name, dtype=dtype, group=group))

    @pytest.mark.parametrize(
        "match,used",
        [
            # The bound is match * (min(rows, cols) + 1) + ext * (rows +
            # cols + 1) + open with min(rows, cols) = 12, m = 24: just
            # under / over 2**14 for a requested int16, and past 2**29.
            (1258, {"int16": "int16"}),
            (1259, {"int16": "int32"}),
            (41_300_000, {"int16": "float64", "int32": "float64", None: "float64"}),
        ],
        ids=["under-2^14", "over-2^14", "over-2^29"],
    )
    def test_width_bound_crossings(self, name, dtype, group, match, used):
        """Scores around the width limits: the requested type is promoted
        exactly when the bound says so, and rows and tops stay byte-equal
        to ``scalar`` and the O(n^4) oracle (m = 24) on either side."""
        search = Search("ACGTTGCAACGT" * 2, scoring=Scoring(match=float(match)), k=3)
        codes = search.sequence.codes
        engine = _table_engine(name, dtype, group)
        problems = [
            AlignmentProblem(codes[:r], codes[r:], search.exchange, search.gaps)
            for r in range(12, 12 + group)
        ]
        assert_rows_equal_scalar(engine, problems[:1])
        if name == "lanes":
            want = used.get(dtype, dtype or "int32")
            assert engine.describe() == f"lanes[{want}]"
        assert_rows_equal_scalar(engine, problems)
        check(search, Config(engine=name, dtype=dtype, group=group))


class TestLaneBatches:
    def test_batch_matches_individual(self, protein_scoring):
        ex, gaps = protein_scoring
        seq = pseudo_titin(60, seed=5)
        problems = [
            AlignmentProblem(seq.codes[:r], seq.codes[r:], ex, gaps)
            for r in range(20, 28)
        ]
        assert_rows_equal_scalar(LanesEngine(lanes=8, dtype="float64"), problems)

    def test_mixed_sizes_padding(self, dna_scoring):
        """Lanes of wildly different shapes must not contaminate each other."""
        ex, gaps = dna_scoring
        rng = np.random.default_rng(9)
        problems = [
            AlignmentProblem(
                rng.integers(0, 4, n1).astype(np.int8),
                rng.integers(0, 4, n2).astype(np.int8),
                ex,
                gaps,
            )
            for n1, n2 in [(3, 40), (40, 3), (1, 1), (17, 17), (2, 30)]
        ]
        assert_rows_equal_scalar(LanesEngine(dtype="float64"), problems)

    def test_batch_with_empty_lane(self, dna_scoring):
        ex, gaps = dna_scoring
        problems = [
            AlignmentProblem(DNA.encode("ACGT"), DNA.encode("ACGT"), ex, gaps),
            AlignmentProblem(np.array([], dtype=np.int8), DNA.encode("AC"), ex, gaps),
        ]
        batch = LanesEngine().last_rows_batch(problems)
        assert batch[0][4] > 0
        assert np.array_equal(batch[1], np.zeros(3))

    def test_empty_batch(self):
        assert LanesEngine().last_rows_batch([]) == []

    def test_scratch_cache_is_bounded(self, dna_scoring):
        """Cycling batch shapes must keep exactly one scratch block per
        thread, sized for the widest batch — not one per shape."""
        ex, gaps = dna_scoring
        engine = LanesEngine(lanes=2, dtype="float64")
        sizes = []
        for group in (2, 9, 3, 12, 5):
            problems = [
                AlignmentProblem(DNA.encode("ACGT"), DNA.encode("ACGT"), ex, gaps)
                for _ in range(group)
            ]
            engine.last_rows_batch(problems)
            sizes.append(engine._tls.block.size)
        assert sizes == sorted(sizes)  # grow-only
        assert sizes[-1] == sizes[-2]  # the 12-lane block serves 5 lanes

    def test_scratch_cache_reuses_recent_shape(self, dna_scoring):
        ex, gaps = dna_scoring
        problems = [
            AlignmentProblem(DNA.encode("ACGT"), DNA.encode("ACGT"), ex, gaps)
            for _ in range(3)
        ]
        # One block serves every value mode (float64 and int64 views).
        for dtype in ("float64", "int32"):
            engine = LanesEngine(lanes=4, dtype=dtype)
            engine.last_rows_batch(problems)
            block = engine._tls.block
            engine.last_rows_batch(problems)
            assert engine._tls.block is block

    def test_mismatched_gaps_rejected(self, dna_scoring):
        ex, _ = dna_scoring
        p1 = AlignmentProblem(DNA.encode("AC"), DNA.encode("AC"), ex, GapPenalties(2, 1))
        p2 = AlignmentProblem(DNA.encode("AC"), DNA.encode("AC"), ex, GapPenalties(3, 1))
        with pytest.raises(ValueError, match="gap penalties"):
            LanesEngine().last_rows_batch([p1, p2])

    def test_mismatched_exchange_rejected(self):
        gaps = GapPenalties(2, 1)
        p1 = AlignmentProblem(
            DNA.encode("AC"), DNA.encode("AC"), match_mismatch(DNA, 2, -1), gaps
        )
        p2 = AlignmentProblem(
            DNA.encode("AC"), DNA.encode("AC"), match_mismatch(DNA, 3, -1), gaps
        )
        with pytest.raises(ValueError, match="exchange"):
            LanesEngine().last_rows_batch([p1, p2])

    def test_fractional_penalties_fall_back_to_float64(self, dna_scoring):
        ex, _ = dna_scoring
        p = AlignmentProblem(
            DNA.encode("ACGTAC"), DNA.encode("ACTTAC"), ex, GapPenalties(2.5, 1)
        )
        for dtype in ("int16", "int32", "float64"):
            engine = LanesEngine(dtype=dtype)
            assert np.array_equal(engine.last_row(p), ScalarEngine().last_row(p))
            assert engine.describe() == "lanes[float64]"
        assert np.array_equal(VectorEngine().last_row(p), ScalarEngine().last_row(p))

    def test_int16_request_is_exact_beyond_32767(self):
        """No saturation: a sub-batch whose score bound outgrows int16
        runs one width up, and ``describe`` says so."""
        ex = match_mismatch(DNA, 30000.0, -1.0, wildcard_score=None)
        gaps = GapPenalties(2, 1)
        p = AlignmentProblem(DNA.encode("AAAA"), DNA.encode("AAAA"), ex, gaps)
        engine = LanesEngine(dtype="int16")
        assert engine.describe() == "lanes[int16]"
        row = engine.last_row(p)
        assert row.max() == 120000.0
        assert np.array_equal(row, ScalarEngine().last_row(p))
        assert engine.describe() == "lanes[int32]"


class TestLaneOverrides:
    """Every way a lockstep batch can meet the override triangle equals
    ``scalar``: folded into the gather (all lanes window one triangle),
    or per lane (mixed with first passes, foreign providers, no profile)."""

    @pytest.fixture(scope="class")
    def setup(self, protein_scoring):
        ex, gaps = protein_scoring
        codes = pseudo_titin(48, seed=4).codes
        pairs = [(3, 30), (4, 31), (5, 32), (9, 40), (10, 41), (20, 44), (22, 23)]
        return codes, ex, gaps, pairs

    def _check(self, problems, dtype):
        assert_rows_equal_scalar(LanesEngine(lanes=8, dtype=dtype), problems)

    @pytest.mark.parametrize("dtype", ["int16", "int32", "float64"])
    @pytest.mark.parametrize("cls", [DenseOverrideTriangle, SparseOverrideTriangle])
    @pytest.mark.parametrize("with_profile", [True, False])
    def test_one_triangle_every_lane(self, setup, cls, dtype, with_profile):
        codes, ex, gaps, pairs = setup
        triangle = cls(codes.size)
        triangle.mark(pairs)
        profile = QueryProfile(codes, ex)
        self._check(
            [
                AlignmentProblem(
                    codes[:r], codes[r:], ex, gaps, triangle.view_for_split(r),
                    profile=profile.suffix(r) if with_profile else None,
                )
                for r in (21, 22, 23, 24, 30, 8)
            ],
            dtype,
        )

    @pytest.mark.parametrize("dtype", ["int16", "int32", "float64"])
    def test_first_pass_lanes_mixed_with_realigned(self, setup, dtype):
        codes, ex, gaps, pairs = setup
        triangle = DenseOverrideTriangle(codes.size)
        triangle.mark(pairs)
        profile = QueryProfile(codes, ex)
        self._check(
            [
                AlignmentProblem(
                    codes[:r], codes[r:], ex, gaps,
                    triangle.view_for_split(r) if r % 2 else None,
                    profile=profile.suffix(r),
                )
                for r in (21, 22, 23, 24, 25, 26)
            ],
            dtype,
        )

    def test_two_triangles_and_a_hand_written_provider(self, setup):
        codes, ex, gaps, pairs = setup
        one, two = DenseOverrideTriangle(codes.size), SparseOverrideTriangle(codes.size)
        one.mark(pairs)
        two.mark(pairs[:3])

        class EveryThirdColumn:
            def row_mask(self, y):
                if y % 2:
                    return None
                mask = np.zeros(codes.size - 24, dtype=bool)
                mask[::3] = True
                return mask

        profile = QueryProfile(codes, ex)
        overrides = {22: one.view_for_split(22), 23: two.view_for_split(23),
                     24: EveryThirdColumn()}
        self._check(
            [
                AlignmentProblem(
                    codes[:r], codes[r:], ex, gaps, override,
                    profile=profile.suffix(r),
                )
                for r, override in overrides.items()
            ],
            "int32",
        )


class TestEngineConstruction:
    def test_invalid_lanes(self):
        with pytest.raises(ValueError):
            LanesEngine(lanes=0)

    def test_invalid_dtype(self):
        with pytest.raises(ValueError):
            LanesEngine(dtype="int8")

    def test_invalid_stripe(self):
        with pytest.raises(ValueError):
            StripedEngine(stripe=0)

    def test_repr(self):
        assert "int16" in repr(LanesEngine(dtype="int16"))
        assert "2730" in repr(StripedEngine())


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    stripe=st.integers(1, 20),
    open_=st.integers(0, 6),
    ext=st.integers(0, 3),
)
def test_striped_equals_scalar_property(data, stripe, open_, ext):
    """Property: any stripe width reproduces the single-pass result."""
    ex = match_mismatch(DNA, 2.0, -1.0, wildcard_score=None)
    gaps = GapPenalties(float(open_), float(ext))
    s1 = np.array(data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=25)), dtype=np.int8)
    s2 = np.array(data.draw(st.lists(st.integers(0, 4), min_size=1, max_size=25)), dtype=np.int8)
    p = AlignmentProblem(s1, s2, ex, gaps)
    assert np.array_equal(
        StripedEngine(stripe=stripe).last_row(p), ScalarEngine().last_row(p)
    )


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    group=st.integers(1, 6),
    dtype=st.sampled_from(["float64", "int32", "int16"]),
)
def test_lanes_batch_equals_scalar_property(data, group, dtype):
    """Property: lockstep lane groups of any width match per-problem scalar."""
    ex = match_mismatch(DNA, 2.0, -1.0, wildcard_score=None)
    gaps = GapPenalties(2.0, 1.0)
    rng_lists = st.lists(st.integers(0, 4), min_size=1, max_size=20)
    problems = [
        AlignmentProblem(
            np.array(data.draw(rng_lists), dtype=np.int8),
            np.array(data.draw(rng_lists), dtype=np.int8),
            ex,
            gaps,
        )
        for _ in range(group)
    ]
    assert_rows_equal_scalar(LanesEngine(dtype=dtype), problems)
