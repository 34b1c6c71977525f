"""An exact-repeat finder over a suffix array, sharing no code with the search.

After Becher et al., "Efficient repeat finding via suffix arrays": sort
the suffixes, take the longest common prefix of neighbours (Kasai's
LCP array), and read the longest common extension of any two suffixes
as a range minimum over it.  A repeat here is a pair of occurrences
``(i, j, length)``, ``i < j``, 0-based, whose copies do not overlap
(``i + length <= j``): the longest common extension of suffixes ``i``
and ``j``, cut where the first copy would run into the second.

Deliberately plain (quadratic in the pairs, fine at test sizes) and
independent of :mod:`repro`: it knows residues and equality, nothing of
scores, matrices or splits.
"""

from __future__ import annotations

from typing import NamedTuple


class Repeat(NamedTuple):
    i: int
    j: int
    length: int

    def pairs(self) -> list[tuple[int, int]]:
        """The aligned residue pairs, 1-based as top alignments hold them."""
        return [(self.i + t + 1, self.j + t + 1) for t in range(self.length)]


def suffix_array(text) -> list[int]:
    """Start positions of ``text``'s suffixes in lexicographic order."""
    return sorted(range(len(text)), key=lambda i: text[i:])


def lcp_array(text, sa: list[int]) -> list[int]:
    """``lcp[k]``: the common prefix of suffixes ``sa[k-1]`` and ``sa[k]``
    (``lcp[0] = 0``), in linear time (Kasai et al.)."""
    n = len(text)
    rank = [0] * n
    for k, i in enumerate(sa):
        rank[i] = k
    lcp, h = [0] * n, 0
    for i in range(n):
        if rank[i]:
            j = sa[rank[i] - 1]
            while i + h < n and j + h < n and text[i + h] == text[j + h]:
                h += 1
            lcp[rank[i]] = h
            h = max(h - 1, 0)
        else:
            h = 0
    return lcp


def repeats(text) -> list[Repeat]:
    """Every left-maximal non-overlapping repeat of ``text``: for each pair
    ``i < j`` that cannot be extended to the left, the longest common
    extension cut at ``j - i``."""
    n = len(text)
    sa = suffix_array(text)
    lcp = lcp_array(text, sa)
    rank = [0] * n
    for k, i in enumerate(sa):
        rank[i] = k
    found = []
    for i in range(n):
        for j in range(i + 1, n):
            if i and text[i - 1] == text[j - 1]:
                continue  # (i - 1, j - 1) extends it
            lo, hi = sorted((rank[i], rank[j]))
            length = min(min(lcp[lo + 1 : hi + 1]), j - i)
            if length:
                found.append(Repeat(i, j, length))
    return found


def longest_repeat(text) -> int:
    """The length of the longest non-overlapping exact repeat (0: none)."""
    return max((r.length for r in repeats(text)), default=0)
