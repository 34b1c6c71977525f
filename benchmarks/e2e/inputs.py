"""Seeded input generators: the program only ever sees what these emit.

Every workload's input is a list of ``(record id, residue text)`` pairs
built here with numpy's ``Generator`` — never with the program's own
``repro.sequences.workloads`` — so a later change to the program's
generators cannot silently change what the benchmark measures.  The
recipes mirror the ones the program's old per-layer benchmarks used
(pseudo-titin: two ancestral ~95-residue domains repeated alternately
at 78 % substitution; implanted DNA: a tandem family overwritten into a
random background).

Two seeds, on purpose.  The *corpus* seed draws the residues.  The run
``--seed`` decides how the corpus is presented: record order, record
ids, and the service schedule (job order, which specs repeat).  The
amount of alignment work must not depend on ``--seed``, because the
best-first search is chaotic in its input — substituting 1 % of one
400-residue protein moves the evaluated cells by up to 17 %, and over
ten corpus seeds the wall time of one pass has a quartile distance of
27 % of its median — while the benchmark has to resolve 10 %.  Another
corpus is one flag away (``--corpus``) for checking that a claim does
not hang on one set of residues.
"""

from __future__ import annotations

import numpy as np

PROTEIN_LETTERS = "ARNDCQEGHILKMFPSTWYV"
DNA_LETTERS = "ACGT"

# Approximate background amino-acid frequencies (Robinson & Robinson),
# in PROTEIN_LETTERS order.
_AA_FREQS = np.array([
    0.078, 0.051, 0.045, 0.054, 0.019, 0.043, 0.063, 0.074, 0.022, 0.051,
    0.091, 0.057, 0.022, 0.039, 0.052, 0.071, 0.058, 0.013, 0.032, 0.065,
])
_AA_FREQS = _AA_FREQS / _AA_FREQS.sum()

Record = tuple[str, str]


CORPUS_SEED = 1912


def _rng(seed: int, *stream: int) -> np.random.Generator:
    """An independent stream per (seed, workload, record)."""
    return np.random.default_rng([seed, *stream])


def present(records: list[Record], seed: int) -> list[Record]:
    """The corpus as run ``seed`` sees it: shuffled, ids tagged."""
    order = _rng(seed, 8).permutation(len(records))
    return [(f"{records[i][0]}.s{seed}", records[i][1]) for i in order]


def base_id(record_id: str) -> str:
    """The corpus id behind a presented id (inverse of :func:`present`)."""
    return record_id.rsplit(".s", 1)[0]


def _text(codes: np.ndarray, letters: str) -> str:
    return "".join(letters[c] for c in codes)


def _substitute(
    codes: np.ndarray, rate: float, probs: np.ndarray | None, rng: np.random.Generator
) -> np.ndarray:
    out = codes.copy()
    hit = rng.random(out.size) < rate
    n_letters = 20 if probs is not None else 4
    out[hit] = rng.choice(n_letters, size=int(hit.sum()), p=probs)
    return out


def pseudo_titin(length: int, rng: np.random.Generator) -> str:
    """A titin-like protein: alternating diverged copies of two domains."""
    domains = [
        rng.choice(20, size=95, p=_AA_FREQS),
        rng.choice(20, size=102, p=_AA_FREQS),
    ]
    pieces: list[np.ndarray] = []
    total = 0
    while total < length:
        copy = _substitute(domains[len(pieces) % 2], 0.78, _AA_FREQS, rng)
        # Light indels so copies differ in length, as in the real protein.
        keep = rng.random(copy.size) >= 0.01
        copy = copy[keep]
        pieces.append(copy)
        total += copy.size
    return _text(np.concatenate(pieces)[:length], PROTEIN_LETTERS)


def random_dna(length: int, rng: np.random.Generator) -> str:
    return _text(rng.integers(0, 4, size=length), DNA_LETTERS)


def implanted_dna(
    length: int, unit: int, copies: int, divergence: float, rng: np.random.Generator
) -> str:
    """Random DNA with ``copies`` tandem copies of one ``unit``-mer."""
    body = rng.integers(0, 4, size=length)
    ancestor = rng.integers(0, 4, size=unit)
    block = np.concatenate(
        [_substitute(ancestor, divergence, None, rng) for _ in range(copies)]
    )[:length]
    start = int(rng.integers(0, length - block.size + 1))
    body[start : start + block.size] = block
    return _text(body, DNA_LETTERS)


def to_fasta(records: list[Record], width: int = 60) -> str:
    lines: list[str] = []
    for rid, text in records:
        lines.append(f">{rid}")
        lines.extend(text[i : i + width] for i in range(0, len(text), width))
    return "\n".join(lines) + "\n"


# -- the five workloads' record sets ----------------------------------------


def titin_records(corpus: int, length: int) -> list[Record]:
    return [("titin", pseudo_titin(length, _rng(corpus, 1, 0)))]


def sparse_dna_records(corpus: int, records: int, length: int) -> list[Record]:
    """One record in six carries a 40x4 tandem family at 10 % divergence.

    (12 % in the program's old index benchmark; at 10 % none of 10 000
    seeded families fell below the routing estimate, so no seed makes
    the index skip a record the reference reports.)
    """
    out: list[Record] = []
    for i in range(records):
        rng = _rng(corpus, 2, i)
        if i % 6 == 0:
            out.append((f"rep{i:03d}", implanted_dna(length, 40, 4, 0.10, rng)))
        else:
            out.append((f"bg{i:03d}", random_dna(length, rng)))
    return out


def dense_dna_records(corpus: int, records: int, length: int) -> list[Record]:
    """Every record repetitive: even 100x2 at 3 %, odd 40x4 at 8 %.

    (At 12 % one odd record in 40 routed *skip*, which is not what this
    workload is for; at 8 % it is 3 in 10 000.)
    """
    out: list[Record] = []
    for i in range(records):
        rng = _rng(corpus, 3, i)
        if i % 2 == 0:
            out.append((f"long{i:03d}", implanted_dna(length, 100, 2, 0.03, rng)))
        else:
            out.append((f"short{i:03d}", implanted_dna(length, 40, 4, 0.08, rng)))
    return out


def protein_records(
    corpus: int, stream: int, records: int, min_len: int, max_len: int
) -> list[Record]:
    """Short titin-like proteins of lengths cycling ``min_len..max_len``."""
    span = max_len - min_len + 1
    return [
        (f"prot{i:03d}", pseudo_titin(min_len + i % span, _rng(corpus, stream, i)))
        for i in range(records)
    ]


def job_schedule(seed: int, distinct: int, repeats: int) -> list[int]:
    """Indices into ``distinct`` records: each once, plus ``repeats``
    re-submissions of an earlier one (result-cache hits), at seeded slots.

    A repeat never names one of the two newest records: with two
    closed-loop clients those may still be running, and a repeat of a
    running job is not a cache hit.
    """
    rng = _rng(seed, 5)
    jobs = distinct + repeats
    repeat_slots = set(rng.choice(np.arange(3, jobs), size=repeats, replace=False))
    schedule: list[int] = []
    fresh = 0
    for slot in range(jobs):
        if slot in repeat_slots:
            schedule.append(int(rng.integers(0, fresh - 2)))
        else:
            schedule.append(fresh)
            fresh += 1
    return schedule
