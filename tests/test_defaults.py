"""One pair of constants sets the execution defaults of every entry point."""

import inspect

import pytest

from repro.align import (
    DEFAULT_ENGINE,
    DEFAULT_GROUP,
    ENGINE_NAMES,
    LanesEngine,
    get_engine,
)
from repro.cli import build_parser
from repro.core import (
    RepeatFinder,
    TopAlignmentSession,
    TopAlignmentState,
    find_repeats,
    find_top_alignments,
    load_checkpoint,
)
from repro.service import JobSpec
from repro.service.protocol import SpecError


def _default(func, name):
    return inspect.signature(func).parameters[name].default


def test_the_default_is_the_lockstep_path():
    assert (DEFAULT_ENGINE, DEFAULT_GROUP) == ("lanes", 8)
    assert isinstance(get_engine(), LanesEngine)
    assert RepeatFinder().prune is True


@pytest.mark.parametrize(
    "func",
    [
        find_repeats,
        find_top_alignments,
        TopAlignmentSession.__init__,
        TopAlignmentState.__init__,
        load_checkpoint,
    ],
    ids=lambda f: f.__qualname__,
)
def test_library_entry_points(func):
    assert _default(func, "engine") == DEFAULT_ENGINE
    if "group" in inspect.signature(func).parameters:
        assert _default(func, "group") == DEFAULT_GROUP


def test_finder_spec_and_session_agree():
    finder, spec = RepeatFinder(), JobSpec(sequence="ACDEFGHIKL")
    assert (finder.engine, finder.group) == (DEFAULT_ENGINE, DEFAULT_GROUP)
    assert (spec.engine, spec.group) == (DEFAULT_ENGINE, DEFAULT_GROUP)
    assert _default(TopAlignmentSession.from_state, "group") == DEFAULT_GROUP


@pytest.mark.parametrize(
    "command",
    [
        ["find"],
        ["scan"],
        ["annotate"],
        ["submit"],
        ["cluster", "scan", "--join", "127.0.0.1:1"],
    ],
    ids=lambda c: "-".join(c[:2]),
)
def test_cli_parsers(command):
    args = build_parser().parse_args([*command, "x.fasta"])
    assert args.engine == DEFAULT_ENGINE
    if hasattr(args, "group"):
        assert args.group == DEFAULT_GROUP
    with pytest.raises(SystemExit):
        build_parser().parse_args([*command, "x.fasta", "--engine", "gotoh"])
    for name in ENGINE_NAMES:
        parsed = build_parser().parse_args([*command, "x.fasta", "--engine", name])
        assert parsed.engine == name


def test_the_engine_table_is_closed():
    """Exactly three names, on every surface that takes one."""
    assert set(ENGINE_NAMES) == {"scalar", "vector", "lanes"}
    for retired in ("striped", "diagonal", "gotoh", "lanes-sse", "lanes-sse2"):
        with pytest.raises(KeyError):
            get_engine(retired)
        with pytest.raises(SpecError):
            JobSpec(sequence="ACDEFGHIKL", engine=retired)
    for func in (find_repeats, RepeatFinder):
        assert "algorithm" not in inspect.signature(func).parameters
