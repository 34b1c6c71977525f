"""Every point of the configuration lattice finds the plainest run's tops.

Hypothesis draws the input (:func:`~tests.conformance.lattice.searches`)
and one lattice point (:func:`~tests.conformance.lattice.configs`); a
failure shrinks to a minimal pair of both.  Each ``@example`` is a case
an earlier suite pinned or a seeded bug was shrunk to (EXPERIMENTS.md,
"The conformance harness").
"""

from hypothesis import example, given, settings

from tests.conformance.lattice import Config, Scoring, Search, check, configs, searches

_FIGURE4 = Search("ATGCATGCATGC", k=3)


@settings(deadline=None)
@given(search=searches(), config=configs())
@example(search=_FIGURE4, config=Config())
@example(search=Search("ACGACGACG", k=50), config=Config(policy="threads", width=4))
@example(search=Search("ATGCATGCATGC", k=10, min_score=5.0), config=Config(group=4))
@example(  # a requested int16 just over 2**14 is promoted, and stays exact
    search=Search("ACGTTGCAACGT" * 2, scoring=Scoring(match=1259.0), k=3),
    config=Config(dtype="int16", group=4),
)
@example(  # past 2**29: every integer type gives way to float64
    search=Search("ACGTTGCAACGT" * 2, scoring=Scoring(match=41_300_000.0), k=3),
    config=Config(dtype="int16", group=8, policy="master"),
)
@example(  # half-integral gaps run, and save rows, in float64
    search=Search("ACDEFACDEFACDEF", True, Scoring("blosum62", 0, 0, 7.5, 0.5), k=4),
    config=Config(dtype="int16", policy="checkpoint", at=2),
)
@example(search=_FIGURE4, config=Config(tiny=True, policy="extend"))
@example(  # shrunk from a master that sent T_ALIGN before the T_MARKs
    search=Search("AA", scoring=Scoring("match", 1.0, 0.0, 0.0, 0.0), k=2),
    config=Config(engine="scalar", group=1, prune=False, policy="master", width=1),
)
def test_every_lattice_point_finds_the_plain_tops(search, config):
    check(search, config)
