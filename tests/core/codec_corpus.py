"""A fixed corpus of results, reports and specs for the wire-form tests.

``tests/core/fixtures/wire_forms_parent.json`` holds what the three
wire forms (service cache payload, cluster report, scan document) and
``job_digest`` produced for this corpus at the commit before the forms
became envelopes around ``RepeatResult.to_dict`` (PR 21); it was written
by running this module's :func:`parent_forms` against that commit's
``src``.  Everything here is built by hand, so every value — including
``engine_seconds`` — is the same on every run.
"""

from repro.core.result import Repeat, RepeatResult, RunStats, TopAlignment
from repro.core.scan import SequenceReport
from repro.sequences import Sequence

PROTEIN_TEXT = "MKTAYIAKQRMKTAYIAKQRMKTAYIAKQR"
DNA_TEXT = "ATGCGTATGCGTATGCGTAT"

DIGEST = "ab" * 32

#: Specs whose digests must never move (``job_digest``; as ``JobSpec`` kwargs).
SPECS = [
    {"sequence": PROTEIN_TEXT},
    {"sequence": PROTEIN_TEXT.lower(), "seq_id": "rec1", "engine": "scalar", "group": 1},
    {"sequence": PROTEIN_TEXT, "top_alignments": 7, "matrix": "pam250",
     "gap_open": 10.0, "gap_extend": 0.5, "min_score": 12.5, "max_gap": 2},
    {"sequence": DNA_TEXT, "alphabet": "dna", "matrix": "simple",
     "gap_open": 2, "gap_extend": 1, "index": True, "index_k": 5, "priority": 3},
    {"sequence": DNA_TEXT, "alphabet": "dna", "min_copy_length": 3,
     "min_score_fraction": 0.5},
]


def results():
    """Three results: a rich one, a minimal one, an index-skipped one."""
    rich = RepeatResult(
        top_alignments=[
            TopAlignment(index=0, r=10, score=52.0,
                         pairs=((1, 11), (2, 12), (3, 13), (5, 14))),
            TopAlignment(index=1, r=20, score=47.5, pairs=((11, 21), (12, 22))),
        ],
        repeats=[
            Repeat(family=0, copies=((1, 10), (11, 20), (21, 30)), columns=9),
            Repeat(family=1, copies=((3, 5), (13, 16)), columns=3),
        ],
        stats=RunStats(
            alignments=41, realignments=12, cells=16800, tracebacks=2,
            realignments_per_top=[0, 12], engine_seconds=0.125,
            engine="lanes[int32]", group=8, speculative_waste=3,
            pruned_cells=420, pruned_lanes=5,
        ),
    )
    minimal = RepeatResult(
        top_alignments=[TopAlignment(index=0, r=6, score=8.0, pairs=((1, 7),))],
        repeats=[],
        stats=RunStats(alignments=19, cells=1140, tracebacks=1,
                       realignments_per_top=[0], engine="vector", group=1),
    )
    skipped = RepeatResult(
        top_alignments=[], repeats=[], stats=RunStats(engine="index-skip")
    )
    return [rich, minimal, skipped]


def reports():
    """One report per result, plus a failed record."""
    rich, minimal, skipped = results()
    return [
        SequenceReport(id="rec1", length=30, result=rich, routed="full"),
        SequenceReport(id="rec2", length=20, result=minimal),
        SequenceReport(id="rec3", length=20, result=skipped, routed="skip"),
        SequenceReport(id="bad", length=12, result=None,
                       error="RuntimeError: boom on bad"),
    ]


def sequences():
    """The records behind :func:`reports` (``rec3`` has none)."""
    return [
        Sequence(PROTEIN_TEXT, "protein", id="rec1"),
        Sequence(DNA_TEXT, "dna", id="rec2"),
        Sequence("ACGTACGTACGT", "dna", id="bad"),
    ]


def wire_forms(service_payload, cluster_report, scan_document, job_digest, spec_cls):
    """The three forms and the digests of the corpus, through the given
    functions (the parent's, or the current ones)."""
    spec = spec_cls(**SPECS[1])
    return {
        "service": [
            service_payload(result, digest=DIGEST, spec=spec) for result in results()
        ],
        "cluster": [cluster_report(report) for report in reports()],
        "scan": scan_document(
            reports(), sequences(), alphabet="protein",
            index_stats={"records": 4, "skip": 1, "full": 1, "index_seconds": 0.5},
        ),
        "digests": [job_digest(spec_cls(**kwargs)) for kwargs in SPECS],
    }
