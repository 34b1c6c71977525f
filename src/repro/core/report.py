"""Full-analysis reports: everything Repro knows about one sequence.

Assembles the whole pipeline's output — top alignments with identities,
repeat families with multiple alignments, unit-length analysis, the dot
plot, optional shuffle-null significance — into one human-readable text
report.  This is the library's user-facing product, mirroring what the
REPRO web server returned to biologists.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..align.base import AlignmentProblem
from ..align.matrix import full_matrix
from ..align.traceback import alignment_identity, traceback
from ..scoring.exchange import ExchangeMatrix
from ..scoring.gaps import GapPenalties
from ..scoring.named import exchange_for
from ..sequences.sequence import Sequence
from .api import find_repeats
from .consensus import UnitChoice, consensus_of_copies, select_unit_length
from .dotplot import render_dotplot
from .msa import RepeatAlignment, align_family, render_msa
from .result import RepeatResult, TopAlignment
from .significance import estimate_null

__all__ = ["AnalysisReport", "FamilyModel", "analyze", "extract_families"]


@dataclass(frozen=True)
class FamilyModel:
    """Everything downstream consumers need about one repeat family.

    This is the single family-assembly path shared by the text renderer
    (:meth:`AnalysisReport.render`) and the annotation layer
    (:mod:`repro.annot`): consensus, unit analysis and the explicit MSA
    are derived here exactly once, as data rather than rendered strings.
    """

    family: int
    #: 1-based inclusive ``(start, end)`` span of each detected copy.
    copies: tuple[tuple[int, int], ...]
    #: Equivalence classes (alignment columns) supporting the family.
    columns: int
    #: Mean copy length in residues.
    unit_length: float
    #: Majority consensus text of the copies.
    consensus: str
    #: Best score among top alignments touching the family region
    #: (0.0 when none intersects — should not happen for real families).
    score: float
    #: Mean per-column identity of the explicit MSA (0.0 when the MSA
    #: could not be built).
    identity: float
    #: §6 period selection over the family region (``None`` when the
    #: region is too short to analyse).
    unit_choice: UnitChoice | None = None
    #: Explicit multiple alignment of the copies (``None`` when the
    #: family shares no columns with the alignments, or when extraction
    #: ran with ``msa=False``).
    msa: RepeatAlignment | None = None

    @property
    def n_copies(self) -> int:
        """Number of detected copies."""
        return len(self.copies)

    @property
    def region(self) -> tuple[int, int]:
        """1-based inclusive span covering every copy of the family."""
        return (
            min(s for s, _ in self.copies),
            max(e for _, e in self.copies),
        )


def _family_score(
    copies: tuple[tuple[int, int], ...], alignments: list[TopAlignment]
) -> float:
    """Best top-alignment score whose intervals touch the family's copies."""
    best = 0.0
    for aln in alignments:
        for lo, hi in (aln.prefix_interval, aln.suffix_interval):
            if any(lo <= e and s <= hi for s, e in copies):
                best = max(best, float(aln.score))
                break
    return best


def extract_families(
    sequence: Sequence,
    result: RepeatResult,
    *,
    msa: bool = True,
    min_unit_region: int = 4,
) -> list[FamilyModel]:
    """Assemble the structured :class:`FamilyModel` for every family.

    ``msa=False`` skips the explicit multiple alignment (the most
    expensive derivation) — the corresponding fields come back as
    ``None``/0.0, matching what ``render(msa=False)`` shows.
    """
    models: list[FamilyModel] = []
    for repeat in result.repeats:
        region_start = min(s for s, _ in repeat.copies)
        region_end = max(e for _, e in repeat.copies)
        unit_choice = None
        if region_end - region_start + 1 >= min_unit_region:
            unit_choice = select_unit_length(
                sequence[region_start - 1 : region_end]
            )
        consensus = consensus_of_copies(sequence, list(repeat.copies))
        family_msa = None
        if msa:
            try:
                family_msa = align_family(
                    sequence, repeat, result.top_alignments
                )
            except ValueError:
                family_msa = None
        models.append(
            FamilyModel(
                family=repeat.family,
                copies=repeat.copies,
                columns=repeat.columns,
                unit_length=repeat.unit_length,
                consensus=consensus.text,
                score=_family_score(repeat.copies, result.top_alignments),
                identity=family_msa.mean_identity if family_msa else 0.0,
                unit_choice=unit_choice,
                msa=family_msa,
            )
        )
    return models


@dataclass
class AnalysisReport:
    """Structured result of :func:`analyze`, renderable as text."""

    sequence: Sequence
    exchange: ExchangeMatrix
    gaps: GapPenalties
    result: RepeatResult
    identities: list[float]
    pvalue: float | None

    def render(self, *, dotplot: bool = True, msa: bool = True) -> str:
        """The full text report."""
        seq = self.sequence
        result = self.result
        lines = [
            f"REPRO analysis of {seq.id or '<unnamed>'}",
            f"  length {len(seq)} ({seq.alphabet.name}); scoring "
            f"{self.exchange.name}, gap {self.gaps.open_:g}+{self.gaps.extend:g}/res",
            f"  alignments computed: {result.stats.alignments} "
            f"({result.stats.realignments} realignments, "
            f"{result.stats.tracebacks} tracebacks)",
            "",
            f"top alignments ({len(result.top_alignments)}):",
        ]
        for aln, identity in zip(result.top_alignments, self.identities):
            p0, p1 = aln.prefix_interval
            s0, s1 = aln.suffix_interval
            lines.append(
                f"  #{aln.index:<3d} score {aln.score:>7g}  "
                f"{p0:>5}-{p1:<5} ~ {s0:>5}-{s1:<5} "
                f"({len(aln)} pairs, {identity:.0%} identity)"
            )
        if self.pvalue is not None:
            verdict = "significant" if self.pvalue < 0.01 else "not significant"
            lines += [
                "",
                f"significance vs shuffle null: p = {self.pvalue:.3g} ({verdict})",
            ]
        lines += ["", f"repeat families ({len(result.repeats)}):"]
        for model in extract_families(seq, result, msa=msa):
            spans = ", ".join(f"{s}..{e}" for s, e in model.copies[:8])
            if model.n_copies > 8:
                spans += f", ... ({model.n_copies} total)"
            lines.append(
                f"  family {model.family}: {model.n_copies} copies, "
                f"~{model.unit_length:.0f} residues, "
                f"{model.columns} conserved columns: {spans}"
            )
            if model.unit_choice is not None:
                choice = model.unit_choice
                lines.append(
                    f"    unit analysis: best period {choice.unit_length} "
                    f"({choice.copies} blocks, {choice.identity:.0%} identity)"
                )
            lines.append(f"    consensus: {model.consensus}")
            if model.msa is not None:
                lines.append(
                    f"    alignment ({model.msa.mean_identity:.0%} identity):"
                )
                for line in render_msa(model.msa).splitlines():
                    lines.append(f"      {line}")
            lines.append("")
        if dotplot:
            lines.append(
                render_dotplot(seq, result.top_alignments, word=2, max_size=56)
            )
        return "\n".join(lines).rstrip() + "\n"


def analyze(
    sequence: Sequence | str,
    *,
    top_alignments: int = 15,
    exchange: ExchangeMatrix | None = None,
    gaps: GapPenalties | None = None,
    max_gap: int = 1,
    significance_shuffles: int = 0,
    seed: int = 0,
    **finder_kwargs,
) -> AnalysisReport:
    """Run the complete pipeline and return a renderable report.

    ``significance_shuffles > 0`` adds the shuffle-null p-value (costs
    that many extra first passes).
    """
    if isinstance(sequence, str):
        sequence = Sequence(sequence, "protein")
    gaps = gaps if gaps is not None else GapPenalties()
    resolved = exchange or exchange_for(None, sequence.alphabet)
    result = find_repeats(
        sequence,
        top_alignments,
        exchange=resolved,
        gaps=gaps,
        max_gap=max_gap,
        **finder_kwargs,
    )

    identities = []
    for aln in result.top_alignments:
        problem = AlignmentProblem(
            sequence.codes[: aln.r], sequence.codes[aln.r :], resolved, gaps
        )
        matrix = full_matrix(problem)
        end_i, end_j = aln.pairs[-1]
        path = traceback(problem, matrix, end_i, end_j - aln.r)
        identities.append(alignment_identity(problem, path))

    pvalue = None
    if significance_shuffles > 0 and result.top_alignments:
        null = estimate_null(
            sequence,
            resolved,
            gaps,
            shuffles=significance_shuffles,
            seed=seed,
        )
        pvalue = null.gumbel_pvalue(result.top_alignments[0].score)

    return AnalysisReport(
        sequence=sequence,
        exchange=resolved,
        gaps=gaps,
        result=result,
        identities=identities,
        pvalue=pvalue,
    )
