"""Scoring substrate: exchange matrices and affine gap penalties."""

from .blosum import blosum50, blosum62
from .exchange import ExchangeMatrix, from_triangle_text, match_mismatch
from .gaps import GapPenalties
from .named import MATRIX_NAMES, exchange_for
from .pam import pam120, pam250

__all__ = [
    "ExchangeMatrix",
    "GapPenalties",
    "match_mismatch",
    "from_triangle_text",
    "blosum62",
    "blosum50",
    "pam250",
    "pam120",
    "MATRIX_NAMES",
    "exchange_for",
]
