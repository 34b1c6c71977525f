"""Shared fixtures and an independent brute-force alignment reference.

The brute-force reference implements Equation 1 *directly from its
mathematical statement* — explicit maximisation over every horizontal
and vertical gap candidate, O(n³) per matrix — deliberately sharing no
code with the engines, so engine/reference agreement is meaningful.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings as hypothesis_settings

from repro.scoring import GapPenalties, blosum62, match_mismatch
from repro.sequences import DNA, PROTEIN, Sequence

# Deep property-testing profile for the nightly ``hypothesis-deep`` CI
# job: many more examples, no deadline (CI runners stall unpredictably),
# and the example database kept so failures upload as an artifact.
# Individual tests that pin ``max_examples`` via ``@settings`` keep
# their pin — the profile only changes the defaults.
hypothesis_settings.register_profile(
    "ci-deep",
    max_examples=1000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)
_profile = os.environ.get("REPRO_HYPOTHESIS_PROFILE")
if _profile:
    hypothesis_settings.load_profile(_profile)


def brute_force_matrix(problem) -> np.ndarray:
    """Equation 1, evaluated candidate by candidate (test oracle)."""
    rows, cols = problem.rows, problem.cols
    E = problem.exchange.scores
    open_, ext = problem.gaps.open_, problem.gaps.extend
    s1, s2 = problem.seq1, problem.seq2
    override = problem.override
    M = np.zeros((rows + 1, cols + 1), dtype=np.float64)
    for y in range(1, rows + 1):
        mask = override.row_mask(y) if override is not None else None
        for x in range(1, cols + 1):
            best = M[y - 1, x - 1]  # no gap
            for c in range(0, x - 1):  # horizontal gap from (y-1, c)
                best = max(best, M[y - 1, c] - (open_ + ext * (x - 1 - c)))
            for r in range(0, y - 1):  # vertical gap from (r, x-1)
                best = max(best, M[r, x - 1] - (open_ + ext * (y - 1 - r)))
            value = max(0.0, E[s1[y - 1], s2[x - 1]] + best)
            if mask is not None and mask[x - 1]:
                value = 0.0
            M[y, x] = value
    return M


#: A ``repro.core.topalign.STATE_BYTES`` so small that a search over any
#: input here spills every store: the triangle is sparse, bottom rows are
#: evicted and refilled, and saved rows are dropped.
TINY_STATE_BYTES = 256


def shrink_state_budget(monkeypatch) -> None:
    """Make every state built from now on in this test spill
    (:data:`TINY_STATE_BYTES`)."""
    from repro.core import topalign

    monkeypatch.setattr(topalign, "STATE_BYTES", TINY_STATE_BYTES)


@pytest.fixture(scope="session")
def dna_scoring():
    """The paper's worked-example scoring: +2/-1, gap open 2 extend 1."""
    return match_mismatch(DNA, 2.0, -1.0), GapPenalties(2.0, 1.0)


@pytest.fixture(scope="session")
def protein_scoring():
    """Realistic protein scoring: BLOSUM62, gap open 8 extend 1."""
    return blosum62(), GapPenalties(8.0, 1.0)


@pytest.fixture()
def figure2_problem(dna_scoring):
    """The §2.1 worked example: ATTGCGA (vertical) vs CTTACAGA."""
    from repro.align import AlignmentProblem

    exchange, gaps = dna_scoring
    return AlignmentProblem.from_sequences("ATTGCGA", "CTTACAGA", exchange, gaps)


@pytest.fixture(scope="session")
def tandem_dna():
    """Figure 4's sequence: ATGCATGCATGC."""
    return Sequence("ATGCATGCATGC", DNA, id="fig4")


@pytest.fixture(scope="session")
def small_repeat_protein():
    """A 120-residue protein with three ~25-aa implanted repeat copies."""
    from repro.sequences import RepeatSpec, implant_repeats

    return implant_repeats(
        120, RepeatSpec(unit_length=25, copies=3, substitution_rate=0.3), seed=7
    ).sequence


def random_codes(rng: np.random.Generator, length: int, nsym: int = 4) -> np.ndarray:
    """Uniform random codes for property tests (small alphabet = dense matches)."""
    return rng.integers(0, nsym, size=length).astype(np.int8)
