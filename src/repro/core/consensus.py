"""Repeat-unit selection and consensus building (§6 future work).

The paper's discussion section sketches what the delineation phase
still needs for long sequences: "extra filtering to select the 'best'
repeat (in a sequence AACAACAACAAC, is it better to delineate two
occurrences of AACAAC, four occurrences of AAC, or eight occurrences of
A?), and more tuning to find the 'right' starting positions of tandem
repeats".  This module implements both:

* :func:`select_unit_length` scores every candidate period of a tandem
  region by ``(mean block identity)^2 x (1 - 1/copies)`` — identity
  rewards a period that really is the repeat unit, the copy factor
  penalises trivially long periods (few copies), and sub-periods that
  do not actually repeat (like ``A`` inside ``AAC``) lose on identity.
  Identity is squared so that a *perfect* longer unit beats a merely
  frequent shorter residue (``TAAA`` x3 should be three TAAA copies,
  not twelve noisy ``A``'s).  For ``AACAACAACAAC`` this selects 3, the
  paper's intended answer.
* :func:`consensus_of_copies` derives a majority consensus from
  delineated copies.
* :func:`phase_tandem` tunes the starting offset of a tandem region so
  copy boundaries land where the copies agree best.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sequences.sequence import Sequence

__all__ = [
    "UnitChoice",
    "block_identity",
    "select_unit_length",
    "consensus_of_copies",
    "phase_tandem",
]


@dataclass(frozen=True)
class UnitChoice:
    """One scored candidate period of a tandem region."""

    unit_length: int
    copies: int
    identity: float
    score: float


def _blocks(codes: np.ndarray, unit: int) -> np.ndarray:
    """Full blocks of length ``unit`` as a (copies, unit) array."""
    copies = codes.size // unit
    return codes[: copies * unit].reshape(copies, unit)


def block_identity(codes: np.ndarray, unit: int) -> float:
    """Mean per-column agreement with the majority residue.

    1.0 means every block is identical; random residues over an
    alphabet of size ``s`` approach ``1/s``.
    """
    blocks = _blocks(codes, unit)
    if blocks.shape[0] < 1:
        return 0.0
    # One bincount over (column, residue) keys instead of one per column.
    n_symbols = int(blocks.max()) + 1
    keys = blocks + np.arange(0, unit * n_symbols, n_symbols, dtype=np.intp)
    counts = np.bincount(keys.ravel(), minlength=unit * n_symbols)
    return int(counts.reshape(unit, n_symbols).max(axis=1).sum()) / blocks.size


def select_unit_length(
    region: Sequence | np.ndarray,
    candidates: list[int] | None = None,
) -> UnitChoice:
    """Choose the best repeat-unit length for a tandem region.

    ``candidates`` defaults to every length from 1 to half the region.
    The winning period maximises ``identity**2 * (1 - 1/copies)``; ties
    go to the shortest unit (maximal decomposition at equal quality).
    """
    codes = region.codes if isinstance(region, Sequence) else np.asarray(region)
    if codes.size < 2:
        raise ValueError("region must have at least 2 residues")
    if candidates is None:
        candidates = list(range(1, codes.size // 2 + 1))
    if not candidates:
        raise ValueError("no candidate unit lengths")
    best: UnitChoice | None = None
    for unit in sorted(set(candidates)):
        if not 1 <= unit <= codes.size:
            raise ValueError(f"candidate unit {unit} outside 1..{codes.size}")
        copies = codes.size // unit
        if copies < 1:
            continue
        # identity <= 1, so a unit scores at most its copy-count factor.
        ceiling = 1.0 - 1.0 / copies if copies > 1 else 0.0
        if best is not None and ceiling <= best.score:
            continue
        identity = block_identity(codes, unit)
        score = identity * identity * ceiling
        choice = UnitChoice(unit, copies, identity, score)
        if best is None or choice.score > best.score:
            best = choice
    assert best is not None
    return best


def consensus_of_copies(
    sequence: Sequence, copies: list[tuple[int, int]]
) -> Sequence:
    """Majority consensus of delineated copies (1-based inclusive spans).

    Copies are anchored at their starts; the consensus length is the
    median copy length, and each column takes the most common residue
    among the copies that reach it (ties: smallest code, deterministic).
    """
    if not copies:
        raise ValueError("need at least one copy")
    arrays = []
    for start, end in copies:
        if not 1 <= start <= end <= len(sequence):
            raise ValueError(f"copy ({start}, {end}) outside the sequence")
        arrays.append(sequence.codes[start - 1 : end])
    length = int(np.median([a.size for a in arrays]))
    out = np.zeros(length, dtype=np.int8)
    for col in range(length):
        column = [int(a[col]) for a in arrays if a.size > col]
        counts = np.bincount(column)
        out[col] = int(np.argmax(counts))
    return Sequence(out, sequence.alphabet, id="consensus")


def phase_tandem(
    region: Sequence | np.ndarray, unit: int
) -> tuple[int, float]:
    """Best starting phase of a tandem region for a given unit length.

    Returns ``(offset, identity)`` where ``offset`` in ``0..unit-1`` is
    the rotation at which the block decomposition agrees best — the
    §6 "right starting positions" tuning.  Ties go to offset 0.
    """
    codes = region.codes if isinstance(region, Sequence) else np.asarray(region)
    if not 1 <= unit <= codes.size // 2:
        raise ValueError("unit must allow at least two full copies")
    best_offset, best_identity = 0, -1.0
    for offset in range(unit):
        tail = codes[offset:]
        if tail.size < 2 * unit:
            continue
        identity = block_identity(tail, unit)
        if identity > best_identity:
            best_offset, best_identity = offset, identity
    return best_offset, best_identity
