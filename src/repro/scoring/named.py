"""The one name → exchange-matrix resolver: the CLI's ``--matrix``, a
``JobSpec``'s ``matrix`` field and ``RepeatFinder``'s per-alphabet
default all mean what :func:`exchange_for` says they mean.
"""

from __future__ import annotations

from ..sequences.alphabet import Alphabet
from .blosum import blosum50, blosum62
from .exchange import ExchangeMatrix, match_mismatch
from .pam import pam120, pam250

__all__ = ["MATRIX_NAMES", "exchange_for"]

_PROTEIN_MATRICES = {
    "blosum62": blosum62,
    "blosum50": blosum50,
    "pam250": pam250,
    "pam120": pam120,
}

#: Every accepted name (``None``, the alphabet's default, is not one).
MATRIX_NAMES = (*_PROTEIN_MATRICES, "simple")


def exchange_for(name: str | None, alphabet: Alphabet) -> ExchangeMatrix:
    """The exchange matrix ``name`` denotes over ``alphabet``.

    ``None`` is the alphabet's default (BLOSUM62 for protein, ``simple``
    otherwise); ``"simple"`` is the paper's +2/-1 toy matrix over any
    alphabet; every other name of :data:`MATRIX_NAMES` is a protein
    matrix.  Anything else is a :class:`ValueError`.
    """
    if name is None:
        name = "blosum62" if alphabet.name == "protein" else "simple"
    if name == "simple":
        return match_mismatch(alphabet, 2.0, -1.0)
    if name not in _PROTEIN_MATRICES:
        raise ValueError(f"matrix must be one of {MATRIX_NAMES}, got {name!r}")
    if alphabet.name != "protein":
        raise ValueError(f"matrix {name!r} requires the protein alphabet")
    return _PROTEIN_MATRICES[name]()
