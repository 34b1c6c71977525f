"""Shared benchmark fixtures.

Every benchmark writes its rendered paper-style table to
``benchmarks/results/`` (created on demand) *and* asserts the paper's
shape claims, so ``pytest benchmarks/ --benchmark-only`` doubles as a
reproduction check.
"""

from __future__ import annotations

import pathlib

import pytest

from figures import bench_sequence, default_scoring

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def scoring():
    return default_scoring()


@pytest.fixture(scope="session")
def titin300():
    return bench_sequence(300)


@pytest.fixture(scope="session")
def titin360():
    return bench_sequence(360)


def save_table(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Persist a rendered table and echo it to the terminal report."""
    path = results_dir / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")
