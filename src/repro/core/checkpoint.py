"""Checkpointing long searches.

Titin-scale runs take hours even on the cluster; a crash should not
repay the first pass.  A checkpoint captures the durable products of a
:class:`~repro.core.topalign.TopAlignmentState` — the accepted
alignments (hence the override triangle) and the first-pass bottom rows
it holds — in a single ``.npz`` file of eight arrays whatever the length
of the search: paths and rows are stored end to end, each next to an
index of their sizes.  Restoring rebuilds a state whose continuation
accepts exactly the original run's tops, which the tests verify.  A
split whose row the state had evicted is simply never aligned after a
restore, and its version-0 first pass is exact whenever it comes.

Scores/rows are stored losslessly (float64); the scoring model itself
is *not* serialised — the caller must restore with the same sequence,
exchange matrix and gap penalties, and a fingerprint check catches
mismatches loudly rather than corrupting results silently.
"""

from __future__ import annotations

import os
import zipfile

import numpy as np

from .. import durable
from ..align.base import DEFAULT_ENGINE
from ..scoring.exchange import ExchangeMatrix
from ..scoring.gaps import GapPenalties
from ..sequences.sequence import Sequence
from .result import TopAlignment
from .topalign import TopAlignmentState

__all__ = ["save_checkpoint", "load_checkpoint", "restore_checkpoint"]

_FORMAT_VERSION = 2


def _fingerprint(state_or_args) -> np.ndarray:
    sequence, exchange, gaps = state_or_args
    payload = np.concatenate(
        [
            sequence.codes.astype(np.float64),
            exchange.scores.ravel(),
            np.array([gaps.open_, gaps.extend], dtype=np.float64),
        ]
    )
    return np.array(
        [payload.size, float(payload.sum()), float((payload**2).sum())]
    )


def save_checkpoint(state: TopAlignmentState, path: str | os.PathLike) -> None:
    """Write ``state``'s durable products to ``path`` (.npz).

    The write is atomic (:func:`repro.durable.atomic_write`): service workers
    checkpoint mid-job and may be SIGKILLed at any instant, and a torn
    write must never replace the last good checkpoint.  Unlike ``np.savez``'s path form, ``path`` is used
    verbatim — no ``.npz`` suffix is appended.
    """
    # A handful of flat arrays, not one archive member per alignment and
    # per bottom row: a member costs ~0.1 ms of zip bookkeeping, paid on
    # every checkpoint of a long job.  Stored, not
    # deflated: deflating took most of the write (2.7 against 1.1 ms
    # stored at 85 residues, 13 against 1.7 ms at m = 400) to make a
    # file 7-11x smaller that is deleted when its job ends, and zip's
    # CRC-32 still catches a damaged byte on load.
    resident = state.bottom_rows.resident()
    stored = sorted(resident)
    rows = [resident[r] for r in stored]
    pairs = [np.array(a.pairs, dtype=np.int64).reshape(-1, 2) for a in state.found]
    arrays: dict[str, np.ndarray] = {
        "format": np.array([_FORMAT_VERSION]),
        "codes": state.codes,
        "fingerprint": _fingerprint((state.sequence, state.exchange, state.gaps)),
        "alignment_meta": np.array(
            [[a.index, a.r, len(a.pairs)] for a in state.found], dtype=np.int64
        ).reshape(-1, 3),
        "alignment_scores": np.array([a.score for a in state.found]),
        "pairs": np.concatenate(pairs) if pairs else np.empty((0, 2), dtype=np.int64),
        "stored_rows": np.array(
            [[r, row.size] for r, row in zip(stored, rows)], dtype=np.int64
        ).reshape(-1, 2),
        "rows": np.concatenate(rows) if rows else np.empty(0, dtype=np.float64),
    }
    durable.atomic_write(path, lambda fh: np.savez(fh, **arrays))


def restore_checkpoint(state: TopAlignmentState, path: str | os.PathLike) -> None:
    """Load the checkpoint at ``path`` into the freshly built ``state``.

    Raises :class:`ValueError` for anything that is not a complete
    checkpoint of ``state``'s own sequence and scoring model — an
    unreadable, truncated or bit-flipped file included — and leaves
    ``state`` untouched in that case, so the caller can start over.
    """
    try:
        # The file is opened here, not by np.load: an archive that
        # zipfile rejects would leave np.load's own handle open.  np.load
        # stops reading a member where its npy header says the array
        # ends, so zip's CRC-32 is only checked if every member is read
        # to its end first: a flipped header byte would otherwise shift
        # the rows silently.
        with open(os.fspath(path), "rb") as fh:
            damaged = zipfile.ZipFile(fh).testzip()
            if damaged is not None:
                raise ValueError(f"checkpoint member {damaged} is damaged")
            fh.seek(0)
            with np.load(fh) as data:
                if int(data["format"][0]) != _FORMAT_VERSION:
                    raise ValueError(
                        f"unsupported checkpoint format {int(data['format'][0])}"
                    )
                if not np.array_equal(data["codes"], state.codes):
                    raise ValueError("checkpoint was written for a different sequence")
                expected = _fingerprint((state.sequence, state.exchange, state.gaps))
                if not np.allclose(data["fingerprint"], expected):
                    raise ValueError(
                        "checkpoint was written under a different scoring model"
                    )
                meta = data["alignment_meta"].reshape(-1, 3)
                pairs = np.split(data["pairs"], np.cumsum(meta[:, 2])[:-1])
                # Plain-int pairs: a restored alignment must be
                # indistinguishable from a freshly computed one (which uses
                # Python ints), down to JSON serialisability of downstream
                # result payloads.
                alignments = [
                    TopAlignment(
                        index=int(index),
                        r=int(r),
                        score=float(score),
                        pairs=tuple((int(i), int(j)) for i, j in path_pairs),
                    )
                    for (index, r, _), score, path_pairs in zip(
                        meta, data["alignment_scores"], pairs
                    )
                ]
                stored = data["stored_rows"].reshape(-1, 2)
                if stored[:, 1].sum() != data["rows"].size:
                    raise ValueError("checkpoint rows do not match their index")
                rows = dict(
                    zip(
                        stored[:, 0].tolist(),
                        np.split(data["rows"], np.cumsum(stored[:, 1])[:-1]),
                    )
                )
    except ValueError:
        raise
    except Exception as exc:  # noqa: BLE001 - see below
        # A damaged archive fails in whichever layer meets the bad byte
        # first — zipfile, zlib, numpy's header parser, a missing key —
        # each with its own exception type; they all mean the same thing.
        raise ValueError(f"unreadable checkpoint: {exc!r}") from exc
    state.restore(alignments, rows)


def load_checkpoint(
    path: str | os.PathLike,
    sequence: Sequence,
    exchange: ExchangeMatrix,
    gaps: GapPenalties = GapPenalties(),
    *,
    engine: str = DEFAULT_ENGINE,
) -> TopAlignmentState:
    """Rebuild a state ready to continue exactly where it stopped; it
    sizes its stores itself, as the one that saved the checkpoint did."""
    state = TopAlignmentState(sequence, exchange, gaps, engine=engine)
    restore_checkpoint(state, path)
    return state
