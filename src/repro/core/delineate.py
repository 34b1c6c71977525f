"""Repeat delineation from top alignments (Repro phase 2).

The paper's scope is the top-alignment phase; delineation — turning
"some tens of top alignments" into explicit repeat copies — is the
second half of the Repro method (Heringa & Argos 1993), which the paper
describes as consuming the top alignments and lists refinements of as
future work.  This module implements the core of that phase:

1. Every matched pair ``(i, j)`` of every top alignment asserts that
   positions *i* and *j* occupy the same column of the repeat's
   implicit multiple alignment.  The transitive closure of those
   assertions — connected components of the pair graph — yields the
   *column classes*.
2. Positions covered by column classes are scanned left to right.
   Copies are maximal runs of covered positions whose column *rank*
   (classes ordered by first occurrence) strictly increases — every
   copy traverses the repeat unit's columns in order, so a rank drop
   (or a revisit, which is a rank tie) marks the start of the next
   copy.
3. Families are separated by their column-class sets: runs sharing
   classes belong to the same family.

On clean input (e.g. ``ATGCATGCATGC`` with its three top alignments of
Figure 4) this recovers exactly the tandem copies; on diverged input it
produces the conserved cores, which is what Repro reports.
"""

from __future__ import annotations

from .result import Repeat, TopAlignment

__all__ = ["column_classes", "delineate_repeats"]


def column_classes(
    alignments: list[TopAlignment],
    *,
    min_size: int = 2,
    min_spacing: int | None = None,
) -> list[set[int]]:
    """Equivalence classes of sequence positions implied by the alignments.

    Each class is a set of 1-based positions that the top alignments
    (transitively) place in the same repeat column.  Classes smaller
    than ``min_size`` are dropped (a position equivalent only to itself
    carries no repeat signal).

    Raw transitive closure is brittle: overlapping alignments at
    different copy offsets contribute slightly off-grid pairs whose
    closure chains can merge *every* column into one class.  The model
    forbids that — two positions occupying the same column belong to
    different copies, so they must be at least one copy apart.  Pairs
    are therefore merged greedily in alignment-score order, and a merge
    that would put two positions closer than ``min_spacing`` into one
    class is rejected (the consistency weighting of the full Repro
    phase 2, reduced to a hard constraint).  ``min_spacing=None``
    estimates half the dominant period from the best alignment's median
    pair offset; ``0`` disables the constraint (pure closure).
    """
    if not alignments:
        return []
    ordered = sorted(alignments, key=lambda a: (-a.score, a.index))
    if min_spacing is None:
        best_offsets = sorted(j - i for i, j in ordered[0].pairs)
        period = best_offsets[len(best_offsets) // 2]
        # Half the dominant period; period-1/-2 repeats (homopolymers,
        # dinucleotide tandems) legitimately pair adjacent positions, so
        # the constraint switches off for them.
        min_spacing = max(1, period // 2)

    parent: dict[int, int] = {}
    members: dict[int, list[int]] = {}  # root -> sorted positions

    def find(pos: int) -> int:
        root = pos
        while parent[root] != root:
            root = parent[root]
        while parent[pos] != root:  # path compression
            parent[pos], pos = root, parent[pos]
        return root

    def add(pos: int) -> None:
        if pos not in parent:
            parent[pos] = pos
            members[pos] = [pos]

    def compatible(a: list[int], b: list[int]) -> bool:
        if min_spacing <= 1:
            return True
        merged = sorted(a + b)
        return all(
            q - p >= min_spacing for p, q in zip(merged, merged[1:])
        )

    for alignment in ordered:
        for i, j in alignment.pairs:
            add(i)
            add(j)
            ri, rj = find(i), find(j)
            if ri == rj:
                continue
            if not compatible(members[ri], members[rj]):
                continue  # inconsistent with the repeat model: skip
            # Union by size, keep the member lists sorted.
            if len(members[ri]) < len(members[rj]):
                ri, rj = rj, ri
            parent[rj] = ri
            members[ri] = sorted(members[ri] + members.pop(rj))

    classes = [set(positions) for positions in members.values()]
    return sorted(
        (c for c in classes if len(c) >= min_size),
        key=lambda c: min(c),
    )


def delineate_repeats(
    alignments: list[TopAlignment],
    sequence_length: int,
    *,
    min_copy_length: int = 2,
    max_gap: int = 0,
    min_score_fraction: float = 0.25,
    min_spacing: int | None = None,
) -> list[Repeat]:
    """Derive repeat families and copy intervals from top alignments.

    Parameters
    ----------
    alignments:
        Output of the top-alignment phase.
    sequence_length:
        Length of the underlying sequence (``m``).
    min_copy_length:
        Copies spanning fewer positions are discarded as noise.
    max_gap:
        Number of consecutive *uncovered* positions tolerated inside a
        copy before it is split (0 = strict; small values bridge
        diverged residues inside otherwise conserved copies).
    min_score_fraction:
        Alignments scoring below this fraction of the best alignment
        are ignored.  Raw transitive closure is brittle: one spurious
        low-scoring alignment can merge unrelated column classes (the
        full Repro method weights its consistency matrix by alignment
        score for the same reason).  Set to 0 to use every alignment.
    min_spacing:
        Forwarded to :func:`column_classes`: the minimum distance
        between two positions sharing a column (``None`` = auto).
    """
    if alignments and min_score_fraction > 0:
        threshold = max(a.score for a in alignments) * min_score_fraction
        alignments = [a for a in alignments if a.score >= threshold]
    classes = column_classes(alignments, min_spacing=min_spacing)
    if not classes:
        return []

    # Map position -> column-class id.
    col_of: dict[int, int] = {}
    for cid, cls in enumerate(classes):
        for pos in cls:
            col_of[pos] = cid

    # Scan for copies: maximal runs of covered positions with strictly
    # increasing column rank, tolerating up to max_gap uncovered
    # positions inside a copy.  Class ids are assigned in first-
    # occurrence order, so the id *is* the rank.
    runs: list[tuple[int, int, set[int]]] = []  # (start, end, class ids)
    start = None
    seen: set[int] = set()
    prev_rank = -1
    gap = 0
    last_covered = 0
    for pos in range(1, sequence_length + 1):
        cid = col_of.get(pos)
        if cid is None:
            if start is not None:
                gap += 1
                if gap > max_gap:
                    runs.append((start, last_covered, seen))
                    start, seen, prev_rank, gap = None, set(), -1, 0
            continue
        if start is None or cid <= prev_rank:
            # Fresh run, or a rank drop/revisit: the next copy begins.
            if start is not None:
                runs.append((start, last_covered, seen))
            start, seen, gap = pos, {cid}, 0
        else:
            seen = seen | {cid}
            gap = 0
        prev_rank = cid
        last_covered = pos
    if start is not None:
        runs.append((start, last_covered, seen))

    runs = [r for r in runs if r[1] - r[0] + 1 >= min_copy_length]
    if not runs:
        return []

    # Group runs into families: runs sharing any column class are copies
    # of the same repeat (connected components, by union-find).
    parent = list(range(len(runs)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    class_to_runs: dict[int, list[int]] = {}
    for idx, (_, _, cls) in enumerate(runs):
        for cid in cls:
            class_to_runs.setdefault(cid, []).append(idx)
    for members in class_to_runs.values():
        for a, b in zip(members, members[1:]):
            parent[find(a)] = find(b)
    components: dict[int, list[int]] = {}
    for idx in range(len(runs)):
        components.setdefault(find(idx), []).append(idx)

    repeats: list[Repeat] = []
    # Member lists are ascending by construction; order families by
    # their first copy.
    for fam_id, members in enumerate(sorted(components.values(), key=min)):
        if len(members) < 2:
            continue  # a family needs at least two copies
        copies = tuple((runs[i][0], runs[i][1]) for i in members)
        columns = len(set().union(*(runs[i][2] for i in members)))
        repeats.append(Repeat(family=fam_id, copies=copies, columns=columns))
    # Renumber families densely after the >=2-copy filter.
    return [
        Repeat(family=n, copies=r.copies, columns=r.columns)
        for n, r in enumerate(repeats)
    ]
