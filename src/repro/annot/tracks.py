"""Per-coordinate repetitiveness profile tracks.

ProfRep-style output: for every scanned sequence, a windowed
repeat-copy *coverage depth* along its coordinates.  Depth at a residue
is the number of delineated repeat copies covering it (across all
families), so the track answers "how repetitive is this region" at a
glance and sums are exactly auditable: the mean window depths weighted
by window width add up to the total copy residue count,

    sum(values[w] * width[w]) == sum(end - start + 1 over all copies).

That identity is the consistency contract between the profile JSON and
the GFF3 copy spans — tested, and cheap for consumers to re-verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

__all__ = ["ProfileTrack", "build_track", "render_wig"]

#: Sparkline-friendly resolution cap: auto-windowing targets at most
#: this many windows per sequence.
_TARGET_WINDOWS = 120


def auto_window(length: int) -> int:
    """Deterministic window width for ``length`` (≈120 windows, ≥1)."""
    if length <= 0:
        return 1
    return max(1, -(-length // _TARGET_WINDOWS))


@dataclass(frozen=True)
class ProfileTrack:
    """One sequence's windowed repeat-coverage profile.

    ``values[w]`` is the mean copy depth over window ``w``; windows are
    ``window`` residues wide except the last, which covers the tail
    (its width is ``length - (len(values) - 1) * window``).
    """

    sequence_id: str
    length: int
    window: int
    values: tuple[float, ...]
    #: Fraction of residues covered by at least one repeat copy.
    repetitiveness: float
    #: Mean copy depth over the whole sequence.
    mean_depth: float
    #: Deepest single-residue copy depth.
    max_depth: int
    n_families: int
    n_copies: int

    def window_span(self, index: int) -> tuple[int, int]:
        """1-based inclusive residue span of window ``index``."""
        start = index * self.window + 1
        return start, min((index + 1) * self.window, self.length)

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form (the ``profile.json`` per-sequence entry).

        Whole-valued window means — nearly all of them: depth is flat
        inside a copy and zero outside — are written as integers
        (``0``, not ``0.0``): equal numbers to any JSON reader, at three
        fifths of the text.
        """
        return {
            "id": self.sequence_id,
            "length": self.length,
            "window": self.window,
            "values": [int(v) if v.is_integer() else v for v in self.values],
            "repetitiveness": self.repetitiveness,
            "mean_depth": self.mean_depth,
            "max_depth": self.max_depth,
            "n_families": self.n_families,
            "n_copies": self.n_copies,
        }


def coverage_depth(
    length: int, copies: Iterable[tuple[int, int]]
) -> np.ndarray:
    """Per-residue copy depth (int32) from 1-based inclusive spans."""
    depth = np.zeros(length, dtype=np.int32)
    for start, end in copies:
        if not 1 <= start <= end <= length:
            raise ValueError(
                f"copy ({start}, {end}) outside sequence of length {length}"
            )
        depth[start - 1 : end] += 1
    return depth


def build_track(
    sequence_id: str,
    length: int,
    families: Iterable[tuple[int, tuple[tuple[int, int], ...]]],
    *,
    window: int = 0,
) -> ProfileTrack:
    """Windowed profile of ``families`` (``(family, copies)`` pairs).

    ``window=0`` picks :func:`auto_window`; window means are exact
    (``float(sum)/width``), so the weighted-sum identity in the module
    docstring holds to float precision.
    """
    family_list = list(families)
    all_copies = [span for _, copies in family_list for span in copies]
    if window <= 0:
        window = auto_window(length)
    depth = coverage_depth(length, all_copies)
    values: list[float] = []
    for start in range(0, length, window):
        chunk = depth[start : start + window]
        values.append(float(chunk.sum()) / chunk.size)
    return ProfileTrack(
        sequence_id=sequence_id,
        length=length,
        window=window,
        values=tuple(values),
        repetitiveness=float((depth > 0).mean()) if length else 0.0,
        mean_depth=float(depth.mean()) if length else 0.0,
        max_depth=int(depth.max()) if length else 0,
        n_families=len(family_list),
        n_copies=len(all_copies),
    )


def render_wig(tracks: Iterable[ProfileTrack]) -> str:
    """Wig-style text form of the profile tracks.

    One ``fixedStep`` block per sequence (``step`` = ``span`` = the
    track's window), one mean-depth value per line.  The final window's
    value still describes only the in-bounds tail, as in the JSON form.
    """
    lines: list[str] = ["track type=wiggle_0 name=repro_repeat_depth"]
    for track in tracks:
        lines.append(
            f"fixedStep chrom={track.sequence_id or 'unnamed'} start=1 "
            f"step={track.window} span={track.window}"
        )
        lines.extend(f"{value:g}" for value in track.values)
    return "\n".join(lines) + "\n"
