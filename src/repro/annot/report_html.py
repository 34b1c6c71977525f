"""Self-contained single-file HTML repeat report.

Everything is inline — CSS in one ``<style>`` block, sparklines as
inline SVG, collapsible sections as native ``<details>`` elements — so
the file renders identically from disk, an artifact store or an
air-gapped workstation.  The contract enforced by tests and the CI
smoke job: the document contains **zero** external references (no
``http(s)`` URLs, no ``<script src>``, no ``<link>``).
"""

from __future__ import annotations

import html
from typing import TYPE_CHECKING, Iterable

from ..core.msa import render_msa
from .tracks import ProfileTrack

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from ..core.report import FamilyModel

__all__ = ["render_html"]

_CSS = """
body { font-family: system-ui, sans-serif; margin: 2rem auto; max-width: 64rem;
       color: #1a222c; background: #fcfcfa; }
h1 { font-size: 1.4rem; border-bottom: 2px solid #2a5d9c; padding-bottom: .3rem; }
h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; margin: .6rem 0; font-size: .9rem; }
th, td { border: 1px solid #c8cdd4; padding: .25rem .6rem; text-align: left; }
th { background: #eef2f7; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
pre { background: #f2f4f6; padding: .6rem; overflow-x: auto; font-size: .8rem; }
details { margin: .4rem 0; }
summary { cursor: pointer; color: #2a5d9c; }
.spark { margin: .4rem 0; }
.meta { color: #5a6572; font-size: .85rem; }
.failed { color: #a02020; }
.consensus { font-family: monospace; word-break: break-all; }
"""


def _sparkline(track: ProfileTrack, *, width: int = 560, height: int = 64) -> str:
    """Inline SVG polyline of a profile track's window depths."""
    values = track.values or (0.0,)
    peak = max(max(values), 1e-9)
    n = len(values)
    heights = [f"{height - (value / peak) * (height - 4) - 2:.1f}" for value in values]
    # The interior of a flat run draws nothing: keep its two ends only
    # (a track is mostly flat, and the report is held in memory whole).
    points = [
        f"{(i + 0.5) / n * width:.1f},{y}"
        for i, y in enumerate(heights)
        if not 0 < i < n - 1 or not heights[i - 1] == y == heights[i + 1]
    ]
    baseline = (
        f"0,{height} " + " ".join(points) + f" {width},{height}"
    )
    return (
        f'<svg class="spark" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="repeat depth profile of {html.escape(track.sequence_id)}">'
        f'<polygon points="{baseline}" fill="#c9dcf2"/>'
        f'<polyline points="{" ".join(points)}" fill="none" '
        f'stroke="#2a5d9c" stroke-width="1.5"/>'
        "</svg>"
    )


def _family_rows(families: list["FamilyModel"]) -> str:
    rows = []
    for model in families:
        start, end = model.region
        spans = ", ".join(f"{s}-{e}" for s, e in model.copies)
        rows.append(
            "<tr>"
            f'<td class="num">{model.family}</td>'
            f'<td class="num">{model.n_copies}</td>'
            f'<td class="num">{model.unit_length:.0f}</td>'
            f'<td class="num">{model.columns}</td>'
            f'<td class="num">{model.score:g}</td>'
            f'<td class="num">{model.identity:.0%}</td>'
            f'<td class="num">{start}-{end}</td>'
            f"<td>{html.escape(spans)}</td>"
            "</tr>"
        )
    return "".join(rows)


def _family_details(families: list["FamilyModel"]) -> str:
    parts = []
    for model in families:
        body = [
            f'<p class="consensus">consensus ({len(model.consensus)} '
            f"residues): {html.escape(model.consensus)}</p>"
        ]
        if model.unit_choice is not None:
            choice = model.unit_choice
            body.append(
                f'<p class="meta">unit analysis: best period '
                f"{choice.unit_length} ({choice.copies} blocks, "
                f"{choice.identity:.0%} identity)</p>"
            )
        if model.msa is not None:
            body.append(
                "<pre>" + html.escape(render_msa(model.msa)) + "</pre>"
            )
        parts.append(
            "<details>"
            f"<summary>family {model.family} &mdash; consensus &amp; "
            "alignment</summary>"
            + "".join(body)
            + "</details>"
        )
    return "".join(parts)


def render_html(
    entries: Iterable[
        tuple[str, int, ProfileTrack | None, list["FamilyModel"], str | None]
    ],
    *,
    title: str = "repro repeat annotation",
) -> str:
    """The full report for ``(id, length, track, families, error)`` entries."""
    sections = []
    n_sequences = 0
    n_families = 0
    for seq_id, length, track, families, error in entries:
        n_sequences += 1
        n_families += len(families)
        name = html.escape(seq_id or "unnamed")
        if error is not None:
            sections.append(
                f"<h2>{name}</h2>"
                f'<p class="failed">scan failed: {html.escape(error)}</p>'
            )
            continue
        meta = f"{length} residues, {len(families)} repeat families"
        if track is not None:
            meta += (
                f", {track.repetitiveness:.0%} repetitive "
                f"(max depth {track.max_depth}, window {track.window})"
            )
        section = [f"<h2>{name}</h2>", f'<p class="meta">{meta}</p>']
        if track is not None and track.max_depth:
            # A record without a copy has a flat profile: the line below
            # says so, and a database scan is mostly such records.
            section.append(_sparkline(track))
        if families:
            section.append(
                "<table><thead><tr><th>family</th><th>copies</th>"
                "<th>~unit</th><th>columns</th><th>score</th>"
                "<th>identity</th><th>region</th><th>copy spans</th>"
                "</tr></thead><tbody>"
                + _family_rows(families)
                + "</tbody></table>"
            )
            section.append(_family_details(families))
        else:
            section.append('<p class="meta">no repeat families detected.</p>')
        sections.append("".join(section))
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        f"<title>{html.escape(title)}</title>"
        f"<style>{_CSS}</style></head><body>"
        f"<h1>{html.escape(title)}</h1>"
        f'<p class="meta">{n_sequences} sequences, {n_families} repeat '
        "families. Generated by repro annotate; this file is "
        "self-contained (no external resources).</p>"
        + "".join(sections)
        + "</body></html>\n"
    )
