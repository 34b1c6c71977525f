"""Tests for the command-line interface."""

import gzip

import pytest

from benchmarks.figures import main as figures_main
from repro import obs
from repro.align import DEFAULT_ENGINE, DEFAULT_GROUP
from repro.cli import build_parser, main
from repro.sequences import DNA, Sequence, write_fasta


@pytest.fixture()
def tandem_fasta(tmp_path):
    path = tmp_path / "tandem.fasta"
    write_fasta(Sequence("ATGCATGCATGC", DNA, id="tandem"), path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_find_defaults(self):
        args = build_parser().parse_args(["find", "x.fasta"])
        assert args.top_alignments == 20
        assert args.engine == DEFAULT_ENGINE == "lanes"
        assert args.group == DEFAULT_GROUP == 8
        assert args.prune is True

    def test_scan_engine_knobs(self):
        args = build_parser().parse_args(
            ["scan", "db.fasta", "--engine", "lanes", "--group", "8"]
        )
        assert args.engine == "lanes"
        assert args.group == 8

    def test_index_defaults_off(self):
        scan_args = build_parser().parse_args(["scan", "db.fasta"])
        assert scan_args.index is False
        assert scan_args.min_score == 0.0
        threshold = build_parser().parse_args(
            ["scan", "db.fasta", "--index-threshold", "40"]
        )
        assert threshold.min_score == 40.0  # the older spelling of --min-score
        assert scan_args.index_cache is None

    @pytest.mark.parametrize("artifact", ["batched", "index", "pruning"])
    def test_bench_layer_artifacts_are_retired(self, artifact):
        # Superseded by benchmarks/e2e (one harness, every layer).
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", artifact])

    def test_submit_has_no_algorithm_choice(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "x.fasta", "--algorithm", "old"])

    def test_find_has_no_algorithm_choice(self):
        # The O(n^4) baseline is a test oracle, not a product option.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["find", "x.fasta", "--algorithm", "old"])

    def test_engines_subcommand_is_retired(self):
        # The table is closed: --engine's choices= list it in --help.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["engines"])


class TestGenerateCommand:
    def test_titin_to_file(self, tmp_path, capsys):
        out = tmp_path / "titin.fasta"
        assert main(["generate", "titin", "--length", "120", "--output", str(out)]) == 0
        from repro.sequences import read_fasta

        (rec,) = read_fasta(out)
        assert len(rec) == 120

    def test_implanted_to_stdout(self, capsys):
        assert main(["generate", "implanted", "--length", "100", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(">implanted")


class TestFindCommand:
    def test_find_on_tandem(self, tandem_fasta, capsys):
        code = main(
            [
                "find",
                tandem_fasta,
                "-k",
                "3",
                "--alphabet",
                "dna",
                "--gap-open",
                "2",
                "--gap-extend",
                "1",
                "--show-alignments",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert ">tandem length=12" in out
        assert "repeat families: 1" in out
        assert "top#0 score=8" in out

    def test_find_batched_matches_sequential(self, tandem_fasta, capsys):
        def results_only(text):
            # Speculation legitimately changes "alignments computed";
            # every reported alignment and family must be identical.
            return [
                line for line in text.splitlines()
                if "alignments computed" not in line
            ]

        base = ["find", tandem_fasta, "-k", "3", "--alphabet", "dna",
                "--gap-open", "2", "--gap-extend", "1", "--show-alignments"]
        assert main(base) == 0
        sequential = capsys.readouterr().out
        assert main(base + ["--engine", "lanes", "--group", "4"]) == 0
        assert results_only(capsys.readouterr().out) == results_only(sequential)

    def test_find_protein_matrix_choice(self, tmp_path, capsys):
        path = tmp_path / "p.fasta"
        write_fasta(Sequence("MKTAYIAKQRMKTAYIAKQR", id="p"), path)
        assert main(["find", str(path), "-k", "1", "--matrix", "pam250"]) == 0
        assert "top alignments: 1" in capsys.readouterr().out

    def test_protein_matrix_on_dna_rejected(self, tandem_fasta):
        with pytest.raises(SystemExit, match="protein"):
            main(["find", tandem_fasta, "--alphabet", "dna", "--matrix", "blosum62"])

    def test_empty_fasta_rejected(self, tmp_path):
        empty = tmp_path / "empty.fasta"
        empty.write_text("")
        with pytest.raises(SystemExit, match="no FASTA records"):
            main(["find", str(empty)])

    @pytest.mark.parametrize(
        "name, data",
        [
            ("bom.fasta", b"\xef\xbb\xbf>s\nATGCATGC\n"),
            ("latin1.fasta", b">s\nATGC\xffATGC\n"),
            # Its 8-byte trailer cut off: gzip raises EOFError.
            ("torn.fasta.gz", gzip.compress(b">s\nATGCATGCATGC\n" * 50)[:-8]),
        ],
        ids=["bom", "non-ascii", "truncated-gz"],
    )
    def test_unreadable_fasta_is_one_line_naming_the_file(self, tmp_path, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        with pytest.raises(SystemExit) as exc:
            main(["find", str(path)])
        assert str(exc.value).startswith(f"cannot read FASTA {path}: ")
        assert "\n" not in str(exc.value)

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(">s\nATGCATGCATGC\n"))
        assert main(["find", "-", "-k", "2", "--alphabet", "dna"]) == 0
        assert "top alignments: 2" in capsys.readouterr().out


class TestAlignCommand:
    def test_paper_example(self, capsys):
        assert main(["align", "ATTGCGA", "CTTACAGA"]) == 0
        out = capsys.readouterr().out
        assert "score 6" in out
        assert "TTGC-GA" in out and "TTACAGA" in out

    def test_lowercase_input(self, capsys):
        assert main(["align", "attgcga", "cttacaga"]) == 0
        assert "score 6" in capsys.readouterr().out

    def test_protein_matrix(self, capsys):
        assert main(
            ["align", "MKTAYIAK", "MKTAYIAK", "--alphabet", "protein",
             "--matrix", "blosum62"]
        ) == 0
        assert "score" in capsys.readouterr().out

    def test_no_alignment(self, capsys):
        assert main(["align", "AAAA", "TTTT"]) == 0
        assert "no positive-scoring" in capsys.readouterr().out

    def test_matrix_requires_protein(self):
        with pytest.raises(SystemExit, match="protein"):
            main(["align", "ACGT", "ACGT", "--matrix", "pam250"])


class TestScanCommand:
    def test_ranking(self, tmp_path, capsys):
        from repro.sequences import random_sequence, tandem_repeat_sequence

        path = tmp_path / "db.fasta"
        write_fasta(
            [
                Sequence(random_sequence(40, DNA, seed=3).codes, DNA, id="rand"),
                Sequence(tandem_repeat_sequence("ATGCGT", 5).codes, DNA, id="tand"),
            ],
            path,
        )
        assert main(["scan", str(path), "--alphabet", "dna", "-k", "4"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1].split()[1] == "tand"  # best score ranks first

    def test_limit(self, tmp_path, capsys):
        from repro.sequences import random_sequence

        path = tmp_path / "db.fasta"
        write_fasta(
            [
                Sequence(random_sequence(30, DNA, seed=s).codes, DNA, id=f"s{s}")
                for s in range(3)
            ],
            path,
        )
        assert main(["scan", str(path), "--alphabet", "dna", "--limit", "1", "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 2  # header + 1 row

    def test_engine_and_group_knobs(self, tmp_path, capsys):
        from repro.sequences import tandem_repeat_sequence

        path = tmp_path / "db.fasta"
        write_fasta(
            [Sequence(tandem_repeat_sequence("ATGCGT", 5).codes, DNA, id="tand")],
            path,
        )
        base = ["scan", str(path), "--alphabet", "dna", "-k", "4"]
        assert main(base) == 0
        sequential = capsys.readouterr().out
        assert main(base + ["--engine", "lanes", "--group", "8"]) == 0
        assert capsys.readouterr().out == sequential

    def test_empty_rejected(self, tmp_path):
        empty = tmp_path / "e.fasta"
        empty.write_text("")
        with pytest.raises(SystemExit):
            main(["scan", str(empty)])

    def test_index_adds_routed_column_same_ranking(self, tmp_path, capsys):
        from repro.sequences import random_sequence, tandem_repeat_sequence

        path = tmp_path / "db.fasta"
        write_fasta(
            [
                Sequence(random_sequence(60, DNA, seed=3).codes, DNA, id="rand"),
                Sequence(tandem_repeat_sequence("ATGCGT", 8).codes, DNA, id="tand"),
            ],
            path,
        )
        base = ["scan", str(path), "--alphabet", "dna", "-k", "4"]
        assert main(base) == 0
        plain = capsys.readouterr().out.splitlines()
        assert main(base + ["--index"]) == 0
        captured = capsys.readouterr()
        indexed = captured.out.splitlines()
        assert "routed" in indexed[0]
        assert "index:" in captured.err
        # Same records in the same rank order, each with a routing label.
        for plain_row, indexed_row in zip(plain[1:], indexed[1:]):
            assert indexed_row.split()[1] == plain_row.split()[1]
            assert indexed_row.split()[-1] in ("skip", "defer", "full")

    def test_index_warm_cache_reloads(self, tmp_path, capsys):
        from repro.sequences import tandem_repeat_sequence

        path = tmp_path / "db.fasta"
        write_fasta(
            [Sequence(tandem_repeat_sequence("ATGCGT", 8).codes, DNA, id="tand")],
            path,
        )
        cache_dir = str(tmp_path / "idxcache")
        cmd = [
            "scan", str(path), "--alphabet", "dna", "-k", "4",
            "--index", "--index-cache", cache_dir,
        ]
        assert main(cmd) == 0
        assert "builds=1 loads=0" in capsys.readouterr().err
        assert main(cmd) == 0
        assert "builds=0 loads=1" in capsys.readouterr().err


class TestSearchCommand:
    def test_ranks_by_query_similarity(self, tmp_path, capsys):
        from repro.sequences import PROTEIN, random_sequence

        query = "HQRTHTGEKPYKCPECGK"
        db = [
            Sequence(random_sequence(50, PROTEIN, seed=1).codes, PROTEIN, id="noise"),
            Sequence(
                random_sequence(20, PROTEIN, seed=2).codes, PROTEIN, id="pre"
            ),
        ]
        # Plant the query inside one record.
        hit = Sequence(db[1].text + query + "AAAA", PROTEIN, id="hit")
        path = tmp_path / "db.fasta"
        write_fasta([db[0], hit], path)
        assert main(["search", query, str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split()[1] == "hit"

    def test_empty_db_rejected(self, tmp_path):
        empty = tmp_path / "e.fasta"
        empty.write_text("")
        with pytest.raises(SystemExit):
            main(["search", "ACDEF", str(empty)])

    def test_dna_simple_matrix(self, tandem_fasta, capsys):
        assert main(
            ["search", "ATGCATGC", tandem_fasta, "--alphabet", "dna"]
        ) == 0
        assert "tandem" in capsys.readouterr().out


class TestFindMsaFlag:
    def test_msa_rendered(self, tandem_fasta, capsys):
        assert main(
            ["find", tandem_fasta, "-k", "3", "--alphabet", "dna",
             "--gap-open", "2", "--gap-extend", "1", "--msa"]
        ) == 0
        out = capsys.readouterr().out
        assert "alignment (100% identity)" in out
        assert "ATGC" in out


class TestSimulateCommand:
    """``repro simulate`` is ``benchmarks/figures.py simulate`` now."""

    def test_basic_run(self, capsys):
        assert figures_main(["simulate", "--length", "120", "-k", "2", "-P", "4"]) == 0
        out = capsys.readouterr().out
        assert "speed improvement" in out
        assert "utilisation" in out

    def test_gantt(self, capsys):
        assert figures_main(
            ["simulate", "--length", "100", "-k", "1", "-P", "4", "--gantt"]
        ) == 0
        out = capsys.readouterr().out
        assert "cpu  0" in out and "master" in out


class TestBenchCommand:
    """``repro bench`` is ``benchmarks/figures.py`` now."""

    def test_realign_artifact_runs(self, capsys, tmp_path):
        snapshot = tmp_path / "metrics.json"
        try:
            assert figures_main(
                ["realign", "-k", "3", "--emit-metrics", str(snapshot)]
            ) == 0
        finally:
            obs.reset()
        out = capsys.readouterr().out
        assert "realignments avoided" in out
        assert "repro_realignments_total" in snapshot.read_text()

    @pytest.mark.parametrize("command", ["bench", "simulate"])
    def test_left_the_package(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command])


class TestAnnotate:
    @pytest.fixture()
    def repeat_fasta(self, tmp_path):
        path = tmp_path / "rep.fasta"
        write_fasta(Sequence("MKTAYIAKQR" * 5, id="rep"), path)
        return str(path)

    def test_parser_defaults(self):
        args = build_parser().parse_args(["annotate", "scan.json"])
        assert args.prefix == "repro-annot"
        assert args.window == 0

    def test_fasta_to_artifacts(self, repeat_fasta, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["annotate", repeat_fasta, "--prefix", "out"]) == 0
        out = capsys.readouterr().out
        assert "wrote out.gff3" in out
        for suffix in (".gff3", ".profile.json", ".html", ".wig"):
            assert (tmp_path / f"out{suffix}").exists()
        from repro.annot import validate_gff3

        assert validate_gff3((tmp_path / "out.gff3").read_text()) == []
        assert "http" not in (tmp_path / "out.html").read_text()

    def test_scan_json_then_annotate_offline(
        self, repeat_fasta, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(
            ["scan", repeat_fasta, "--json", "scan.json", "-k", "5"]
        ) == 0
        assert (tmp_path / "scan.json").exists()
        capsys.readouterr()
        assert main(["annotate", "scan.json", "--prefix", "off"]) == 0
        out = capsys.readouterr().out
        assert "annotated 1 sequence(s)" in out
        gff = (tmp_path / "off.gff3").read_text()
        assert "repeat_region" in gff

    def test_bad_scan_document(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "other"}', encoding="utf-8")
        with pytest.raises(SystemExit, match="bad scan document"):
            main(["annotate", str(bad)])


class TestOneSearchDescription:
    """With default flags the five search commands describe one search
    (``scan``/``annotate`` used to align with gaps 2/1, the rest 8/1)."""

    @pytest.fixture(params=["protein", "dna"])
    def record(self, request, tmp_path):
        from repro.sequences import pseudo_titin
        from repro.sequences.workloads import RepeatSpec, implant_repeats

        if request.param == "protein":
            seq = pseudo_titin(150, seed=1912)
        else:
            spec = RepeatSpec(unit_length=30, copies=3, substitution_rate=0.1)
            seq = implant_repeats(140, spec, DNA, seed=5).sequence
        path = tmp_path / "record.fasta"
        write_fasta(seq, path)
        return request.param, seq, str(path)

    def test_five_commands_one_search(self, record, tmp_path, monkeypatch, capsys):
        from repro.core.api import RepeatFinder
        from repro.service.protocol import JobSpec, finder_for

        alphabet, seq, path = record
        monkeypatch.chdir(tmp_path)
        searches = []  # (gaps, exchange, min_score, max_gap, first tops) per find()
        real_find = RepeatFinder.find

        def recording_find(finder, sequence):
            result = real_find(finder, sequence)
            searches.append(
                (
                    (finder.gaps.open_, finder.gaps.extend),
                    finder.resolve_exchange(sequence).name,
                    finder.min_score,
                    finder.max_gap,
                    [(a.r, a.score, a.pairs) for a in result.top_alignments[:10]],
                )
            )
            return result

        monkeypatch.setattr(RepeatFinder, "find", recording_find)
        shipped = []  # the specs the two remote commands send

        class FakeCluster:
            def __init__(self, host, port):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def scan(self, spec, payload, options, timeout):
                shipped.append(spec)
                return []

        class FakeService:
            def __init__(self, url, api_key=None):
                pass

            def submit(self, spec, idempotency_key=None):
                shipped.append(JobSpec.from_dict(spec))
                return {"id": "j1", "state": "queued", "digest": "0" * 64}

        monkeypatch.setattr("repro.cluster.client.ClusterClient", FakeCluster)
        monkeypatch.setattr("repro.service.client.ServiceClient", FakeService)

        flags = [path, "--alphabet", alphabet]
        assert main(["find", *flags]) == 0
        assert main(["scan", *flags]) == 0
        assert main(["annotate", *flags, "--prefix", "out"]) == 0
        assert main(["cluster", "scan", *flags, "--join", "127.0.0.1:1"]) == 0
        assert main(["submit", *flags]) == 0
        capsys.readouterr()
        assert len(searches) == 3 and len(shipped) == 2
        for spec in shipped:
            finder_for(spec).find(seq)
        assert len(searches) == 5
        assert searches[0][4], "the record must have top alignments to compare"
        assert all(search == searches[0] for search in searches[1:])


class TestCommandTable:
    def _rows(self):
        from repro.cli import CLUSTER_COMMANDS, COMMANDS

        rows = [[name] for name, *_ in COMMANDS if name != "cluster"]
        return rows + [["cluster", name] for name, *_ in CLUSTER_COMMANDS]

    def test_every_command_has_help(self, capsys):
        rows = self._rows()
        assert len(rows) <= 16
        for argv in rows:
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--help"])
            assert exc.value.code == 0, argv
            assert "usage:" in capsys.readouterr().out, argv

    def test_import_loads_no_subsystem(self):
        import subprocess
        import sys

        probe = (
            "import sys, repro.cli; repro.cli.build_parser(); "
            "print([m for m in sys.modules if m.startswith(('repro.simulate', "
            "'repro.analysis', 'repro.service', 'repro.cluster', 'repro.gateway'))])"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"
