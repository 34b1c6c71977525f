"""Command-line interface: ``python -m repro`` / the ``repro`` script.

Subcommands
-----------
``find``       run repeat detection on a FASTA file (or stdin)
``scan``       rank the records of a FASTA file by repeat content
``annotate``   render scan results as GFF3 + profile JSON + HTML report
``align``      align two sequences and render the superposition (§2.1 style)
``search``     rank FASTA records by best local alignment to a query
``generate``   emit synthetic workloads (pseudo-titin, implanted repeats)
``bench``      regenerate one of the paper's evaluation artifacts
``simulate``   run the DAS-2 cluster simulator at a given processor count
``report``     full analysis report (alignments, families, MSA, dot plot)
``lint``       run the project's static-analysis rules (see ANALYSIS.md)
``serve``      run the job-queue service (HTTP JSON API + worker pool)
``submit``     submit FASTA records to a running service
``status``     show a service job's record (and optionally its events)
``fetch``      fetch a cached result by digest or job id
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence as Seq

from . import __version__
from .align.base import DEFAULT_ENGINE, DEFAULT_GROUP, ENGINE_NAMES
from .core.api import RepeatFinder
from .scoring.blosum import blosum50, blosum62
from .scoring.exchange import match_mismatch
from .scoring.gaps import GapPenalties
from .scoring.pam import pam120, pam250
from .sequences.alphabet import alphabet_for
from .sequences.fasta import read_fasta, write_fasta
from .sequences.workloads import RepeatSpec, implant_repeats, pseudo_titin

__all__ = ["main", "build_parser"]

_MATRICES = {
    "blosum62": blosum62,
    "blosum50": blosum50,
    "pam250": pam250,
    "pam120": pam120,
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Internal-repeat detection via parallel top alignments "
        "(Romein, Heringa & Bal, SC 2003 reproduction).",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    find = sub.add_parser("find", help="detect repeats in FASTA sequences")
    find.add_argument("fasta", nargs="?", default="-", help="FASTA path or '-' for stdin")
    find.add_argument("-k", "--top-alignments", type=int, default=20)
    find.add_argument("--alphabet", default="protein", choices=["protein", "dna", "rna"])
    find.add_argument(
        "--matrix",
        default=None,
        choices=sorted(_MATRICES) + ["simple"],
        help="exchange matrix (default: blosum62 for protein, simple +2/-1 otherwise)",
    )
    find.add_argument("--gap-open", type=float, default=8.0)
    find.add_argument("--gap-extend", type=float, default=1.0)
    find.add_argument("--engine", default=DEFAULT_ENGINE, choices=ENGINE_NAMES)
    find.add_argument(
        "--group",
        type=int,
        default=DEFAULT_GROUP,
        help="stale tasks realigned per engine batch (1 = sequential best-first)",
    )
    find.add_argument("--min-score", type=float, default=0.0)
    find.add_argument(
        "--prune",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="exact in-fill pruning bounds (bit-identical results; "
        "--no-prune computes every matrix in full)",
    )
    find.add_argument(
        "--index",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="seed the best-first heap from the k-mer index tier "
        "(bit-identical results, fewer alignments)",
    )
    find.add_argument(
        "--index-k", type=int, default=0,
        help="k-mer width (0 = per-alphabet default)",
    )
    find.add_argument("--show-alignments", action="store_true")
    find.add_argument(
        "--msa",
        action="store_true",
        help="render a multiple alignment of each repeat family's copies",
    )
    find.add_argument("--max-gap", type=int, default=0)

    gen = sub.add_parser("generate", help="emit a synthetic workload as FASTA")
    gen.add_argument("kind", choices=["titin", "implanted"])
    gen.add_argument("--length", type=int, default=1000)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--unit-length", type=int, default=40)
    gen.add_argument("--copies", type=int, default=4)
    gen.add_argument("--divergence", type=float, default=0.3)
    gen.add_argument("--output", default="-")

    bench = sub.add_parser("bench", help="regenerate a paper artifact")
    bench.add_argument(
        "artifact",
        choices=["table1", "table2", "figure8", "realign"],
    )
    bench.add_argument("--length", type=int, default=None)
    bench.add_argument("-k", "--top-alignments", type=int, default=None)
    bench.add_argument(
        "--emit-metrics",
        default=None,
        metavar="PATH",
        help="enable repro.obs collection and dump the registry snapshot "
        "+ trace trees as JSON after the run",
    )

    scan = sub.add_parser("scan", help="rank FASTA records by repeat content")
    scan.add_argument("fasta", nargs="?", default="-")
    scan.add_argument("-k", "--top-alignments", type=int, default=10)
    scan.add_argument("--alphabet", default="protein", choices=["protein", "dna", "rna"])
    scan.add_argument("--mask", action="store_true", help="mask low-complexity tracts")
    scan.add_argument("--min-length", type=int, default=10)
    scan.add_argument("--engine", default=DEFAULT_ENGINE, choices=ENGINE_NAMES)
    scan.add_argument(
        "--group",
        type=int,
        default=DEFAULT_GROUP,
        help="stale tasks realigned per engine batch (1 = sequential best-first)",
    )
    scan.add_argument(
        "--prune",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="exact in-fill pruning bounds (bit-identical results; "
        "--no-prune computes every matrix in full)",
    )
    scan.add_argument("--limit", type=int, default=0, help="print only the top N")
    scan.add_argument(
        "--index",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="route records through the k-mer index tier "
        "(skip / defer / full-scan classes; accepted tops unchanged)",
    )
    scan.add_argument(
        "--index-k", type=int, default=0,
        help="k-mer width (0 = per-alphabet default)",
    )
    scan.add_argument(
        "--index-threshold",
        type=float,
        default=0.0,
        help="significance threshold: alignments below it are discarded and "
        "records the index proves below it are skipped entirely",
    )
    scan.add_argument(
        "--index-cache",
        default=None,
        metavar="DIR",
        help="content-addressed index store (warm reruns rebuild nothing)",
    )
    scan.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the machine-readable scan document (copy "
        "coordinates, scores, routing, residues) — the input that "
        "'repro annotate' consumes offline",
    )

    annotate = sub.add_parser(
        "annotate",
        help="render scan results as GFF3 + profile JSON + HTML report",
    )
    annotate.add_argument(
        "source",
        help="a 'repro scan --json' document, or a FASTA file to scan "
        "first ('-' = FASTA on stdin)",
    )
    annotate.add_argument(
        "--prefix",
        default="repro-annot",
        help="output prefix: writes <prefix>.gff3, <prefix>.profile.json, "
        "<prefix>.html and <prefix>.wig",
    )
    annotate.add_argument(
        "--window",
        type=int,
        default=0,
        help="profile window width in residues (0 = auto, ~120 windows)",
    )
    annotate.add_argument(
        "--title", default="repro repeat annotation", help="HTML report title"
    )
    annotate.add_argument(
        "--no-msa",
        action="store_true",
        help="skip per-family multiple alignments in the HTML report",
    )
    annotate.add_argument("-k", "--top-alignments", type=int, default=10)
    annotate.add_argument(
        "--alphabet", default="protein", choices=["protein", "dna", "rna"]
    )
    annotate.add_argument(
        "--mask", action="store_true", help="mask low-complexity tracts"
    )
    annotate.add_argument("--min-length", type=int, default=10)
    annotate.add_argument("--engine", default=DEFAULT_ENGINE, choices=ENGINE_NAMES)

    align = sub.add_parser("align", help="align two sequences and render them")
    align.add_argument("seq1", help="first sequence (text, vertical)")
    align.add_argument("seq2", help="second sequence (text, horizontal)")
    align.add_argument("--alphabet", default="dna", choices=["protein", "dna", "rna"])
    align.add_argument("--matrix", default=None, choices=sorted(_MATRICES) + ["simple"])
    align.add_argument("--gap-open", type=float, default=2.0)
    align.add_argument("--gap-extend", type=float, default=1.0)

    search = sub.add_parser(
        "search", help="rank FASTA records by best local alignment to a query"
    )
    search.add_argument("query", help="query sequence text")
    search.add_argument("fasta", nargs="?", default="-")
    search.add_argument("--alphabet", default="protein", choices=["protein", "dna", "rna"])
    search.add_argument("--matrix", default=None, choices=sorted(_MATRICES) + ["simple"])
    search.add_argument("--gap-open", type=float, default=8.0)
    search.add_argument("--gap-extend", type=float, default=1.0)
    search.add_argument("--lanes", type=int, default=8)
    search.add_argument("--top", type=int, default=10)

    simulate = sub.add_parser(
        "simulate", help="simulate a DAS-2 cluster run (Figure 8 style)"
    )
    simulate.add_argument("--length", type=int, default=300)
    simulate.add_argument("-k", "--top-alignments", type=int, default=5)
    simulate.add_argument("-P", "--processors", type=int, default=16)
    simulate.add_argument("--machine", default="pentium3", choices=["pentium3", "pentium4"])
    simulate.add_argument("--tier", default="sse")
    simulate.add_argument("--gantt", action="store_true", help="print a CPU timeline")

    report = sub.add_parser(
        "report", help="full analysis report for FASTA sequences"
    )
    report.add_argument("fasta", nargs="?", default="-")
    report.add_argument("-k", "--top-alignments", type=int, default=15)
    report.add_argument("--alphabet", default="protein", choices=["protein", "dna", "rna"])
    report.add_argument("--gap-open", type=float, default=8.0)
    report.add_argument("--gap-extend", type=float, default=1.0)
    report.add_argument("--max-gap", type=int, default=1)
    report.add_argument(
        "--shuffles", type=int, default=0,
        help="shuffle-null significance (0 = skip)",
    )
    report.add_argument("--no-dotplot", action="store_true")

    # Listed for --help only: main() hands everything after "lint" to
    # repro.analysis.linter.main, which owns the flags.
    sub.add_parser(
        "lint",
        help="project-specific static analysis (invariant-guarding rules; "
        "'repro lint --help' lists its flags)",
    )

    serve = sub.add_parser(
        "serve", help="run the repeat-finder job service (HTTP + worker pool)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765, help="0 = ephemeral")
    serve.add_argument("--workers", type=int, default=2, help="0 = no in-process pool")
    serve.add_argument("--queue-capacity", type=int, default=64, help="0 = unbounded")
    serve.add_argument("--data-dir", default="repro-service-data")
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        help="top alignments accepted between checkpoints",
    )
    serve.add_argument(
        "--cluster-port",
        type=int,
        default=None,
        help="also run a cluster coordinator on this port (0 = ephemeral); "
        "jobs route cluster-wide while worker nodes are alive",
    )
    serve.add_argument(
        "--tenants",
        default=None,
        metavar="FILE",
        help="tenant config JSON (API keys, weights, quotas); omitted = "
        "open mode, every request is the unlimited public tenant. "
        "SIGHUP hot-reloads the file",
    )
    serve.add_argument(
        "--dispatch-window",
        type=int,
        default=0,
        help="jobs the gateway keeps in the spool at once "
        "(0 = auto: max(4, 2 x workers))",
    )

    cluster = sub.add_parser(
        "cluster", help="multi-node sharded execution (coordinator / node / scan)"
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)

    coord = cluster_sub.add_parser(
        "coordinator", help="run a standalone cluster coordinator"
    )
    coord.add_argument("--host", default="127.0.0.1")
    coord.add_argument("--port", type=int, default=9410, help="0 = ephemeral")
    coord.add_argument(
        "--scan-shard-size", type=int, default=4, help="records per scan shard"
    )
    coord.add_argument(
        "--lease-seconds", type=float, default=60.0, help="shard lease deadline"
    )
    coord.add_argument(
        "--node-timeout", type=float, default=6.0, help="heartbeat staleness bound"
    )

    node = cluster_sub.add_parser("node", help="run a worker node agent")
    node.add_argument(
        "--join", required=True, metavar="HOST:PORT", help="coordinator address"
    )
    node.add_argument("--node-id", default="", help="default: hostname-pid")
    node.add_argument(
        "--max-shards", type=int, default=0, help="exit after N shards (0 = unbounded)"
    )

    cscan = cluster_sub.add_parser(
        "scan", help="rank FASTA records by repeat content, sharded over a cluster"
    )
    cscan.add_argument("fasta", nargs="?", default="-")
    cscan.add_argument(
        "--join", required=True, metavar="HOST:PORT", help="coordinator address"
    )
    cscan.add_argument("-k", "--top-alignments", type=int, default=10)
    cscan.add_argument(
        "--alphabet", default="protein", choices=["protein", "dna", "rna"]
    )
    cscan.add_argument("--mask", action="store_true", help="mask low-complexity tracts")
    cscan.add_argument("--min-length", type=int, default=10)
    cscan.add_argument("--engine", default=DEFAULT_ENGINE, choices=ENGINE_NAMES)
    cscan.add_argument(
        "--index",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="enable the k-mer index tier on every shard (and order shards "
        "most-promising-first)",
    )
    cscan.add_argument(
        "--index-k", type=int, default=0,
        help="k-mer width (0 = per-alphabet default)",
    )
    cscan.add_argument("--timeout", type=float, default=600.0)

    submit = sub.add_parser("submit", help="submit FASTA records to a service")
    submit.add_argument("fasta", nargs="?", default="-", help="FASTA path or '-' for stdin")
    submit.add_argument("--url", default="http://127.0.0.1:8765")
    submit.add_argument("-k", "--top-alignments", type=int, default=20)
    submit.add_argument("--alphabet", default="protein", choices=["protein", "dna", "rna"])
    submit.add_argument(
        "--matrix", default=None, choices=sorted(_MATRICES) + ["simple"]
    )
    submit.add_argument("--gap-open", type=float, default=8.0)
    submit.add_argument("--gap-extend", type=float, default=1.0)
    submit.add_argument("--engine", default=DEFAULT_ENGINE, choices=ENGINE_NAMES)
    submit.add_argument("--group", type=int, default=DEFAULT_GROUP)
    submit.add_argument("--min-score", type=float, default=0.0)
    submit.add_argument("--max-gap", type=int, default=0)
    submit.add_argument("--priority", type=int, default=0, help="higher runs earlier")
    submit.add_argument(
        "--index",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="workers seed the best-first heap from the k-mer index tier",
    )
    submit.add_argument(
        "--index-k", type=int, default=0,
        help="k-mer width (0 = per-alphabet default)",
    )
    submit.add_argument(
        "--wait", action="store_true", help="block until every job finishes"
    )
    submit.add_argument(
        "--follow", action="store_true", help="stream progress events (implies --wait)"
    )
    submit.add_argument("--timeout", type=float, default=600.0)
    submit.add_argument(
        "--idempotency-key",
        default=None,
        help="replay-safe submission key (single-record submits only): a "
        "duplicate POST returns the original job instead of a new one",
    )

    status = sub.add_parser("status", help="show a service job record")
    status.add_argument("job_id")
    status.add_argument("--url", default="http://127.0.0.1:8765")
    status.add_argument(
        "--events", action="store_true", help="also print the job's event lines"
    )

    fetch = sub.add_parser("fetch", help="fetch a cached result by digest or job id")
    fetch.add_argument("ref", help="result digest (full or unique prefix) or job id")
    fetch.add_argument("--url", default="http://127.0.0.1:8765")
    fetch.add_argument(
        "--summary", action="store_true", help="render a summary instead of raw JSON"
    )
    for client_cmd in (submit, status, fetch):
        client_cmd.add_argument(
            "--api-key",
            default=None,
            help="tenant API key (default: the REPRO_API_KEY environment "
            "variable); required when the service runs with --tenants",
        )
    return parser


def _cmd_find(args: argparse.Namespace) -> int:
    alphabet = alphabet_for(args.alphabet)
    if args.matrix is None:
        exchange = None
    elif args.matrix == "simple":
        exchange = match_mismatch(alphabet, 2.0, -1.0)
    else:
        exchange = _MATRICES[args.matrix]()
        if alphabet.name != "protein":
            raise SystemExit(f"matrix {args.matrix} requires --alphabet protein")
    source = sys.stdin if args.fasta == "-" else args.fasta
    records = read_fasta(source, alphabet)
    if not records:
        raise SystemExit("no FASTA records found")
    finder = RepeatFinder(
        exchange=exchange,
        gaps=GapPenalties(args.gap_open, args.gap_extend),
        top_alignments=args.top_alignments,
        engine=args.engine,
        group=args.group,
        min_score=args.min_score,
        prune=args.prune,
        max_gap=args.max_gap,
    )
    for record in records:
        seed_bounds = None
        if args.index:
            from .index import seed_score_bounds

            seed_bounds = seed_score_bounds(record, finder.resolve_exchange(record))
        result = finder.find(record, seed_bounds=seed_bounds)
        name = record.id or "<unnamed>"
        print(f">{name} length={len(record)}")
        print(
            f"  top alignments: {len(result.top_alignments)}  "
            f"repeat families: {len(result.repeats)}  "
            f"alignments computed: {result.stats.alignments}"
        )
        for repeat in result.repeats:
            spans = ", ".join(f"{s}-{e}" for s, e in repeat.copies)
            print(
                f"  family {repeat.family}: {repeat.n_copies} copies "
                f"(~{repeat.unit_length:.0f} aa, {repeat.columns} conserved cols): "
                f"{spans}"
            )
        if args.show_alignments:
            for aln in result.top_alignments:
                p0, p1 = aln.prefix_interval
                s0, s1 = aln.suffix_interval
                print(
                    f"  top#{aln.index} score={aln.score:g} r={aln.r} "
                    f"{p0}-{p1} ~ {s0}-{s1} ({len(aln)} pairs)"
                )
        if args.msa and result.repeats:
            from .core.msa import align_family, render_msa

            for repeat in result.repeats:
                try:
                    msa = align_family(record, repeat, result.top_alignments)
                except ValueError:
                    continue
                print(
                    f"  family {repeat.family} alignment "
                    f"({msa.mean_identity:.0%} identity):"
                )
                for line in render_msa(msa).splitlines():
                    print(f"    {line}")
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "titin":
        seq = pseudo_titin(args.length, seed=args.seed)
    else:
        workload = implant_repeats(
            args.length,
            RepeatSpec(
                unit_length=args.unit_length,
                copies=args.copies,
                substitution_rate=args.divergence,
            ),
            seed=args.seed,
        )
        seq = workload.sequence
    target = sys.stdout if args.output == "-" else args.output
    write_fasta(seq, target)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench.harness import (
        figure8_series,
        realignment_rows,
        table1_rows,
        table2_rows,
    )

    if args.emit_metrics:
        from . import obs

        obs.enable()

    if args.artifact == "table1":
        kwargs = {}
        if args.top_alignments:
            kwargs["k"] = args.top_alignments
        print(table1_rows(**kwargs).render())
    elif args.artifact == "table2":
        print(table2_rows(size=args.length or 300).render())
    elif args.artifact == "realign":
        kwargs = {}
        if args.top_alignments:
            kwargs["k"] = args.top_alignments
        print(realignment_rows(**kwargs).render())
    else:
        series = figure8_series(
            length=args.length or 360,
            ks=(1, 2, 5, 10, 25) if args.top_alignments is None else (args.top_alignments,),
        )
        print("Figure 8 — speed improvement vs processors (simulated DAS-2)")
        for k, points in sorted(series.items()):
            row = "  ".join(f"P={p}:{s:.0f}" for p, s, _ in points)
            print(f"k={k:3d}  {row}")
    if args.emit_metrics:
        from . import obs

        obs.write_snapshot(args.emit_metrics)
        print(f"wrote {args.emit_metrics}")
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    from .core.scan import DatabaseScanner

    alphabet = alphabet_for(args.alphabet)
    source = sys.stdin if args.fasta == "-" else args.fasta
    records = read_fasta(source, alphabet)
    if not records:
        raise SystemExit("no FASTA records found")
    index_config = None
    index_store = None
    if args.index:
        from .index import IndexConfig, IndexStore

        index_config = IndexConfig(k=args.index_k)
        if args.index_cache:
            index_store = IndexStore(args.index_cache)
    scanner = DatabaseScanner(
        finder=RepeatFinder(
            top_alignments=args.top_alignments,
            min_score=args.index_threshold,
            engine=args.engine,
            group=args.group,
            prune=args.prune,
        ),
        mask=args.mask,
        min_length=args.min_length,
        index=index_config,
        index_store=index_store,
    )
    reports = scanner.rank(records)
    if args.json:
        import json

        from .core.scan import scan_to_payload

        payload = scan_to_payload(
            reports,
            records,
            alphabet=args.alphabet,
            index_stats=scanner.index_stats or None,
        )
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}", file=sys.stderr)
    if args.limit:
        reports = reports[: args.limit]
    routed_col = "  routed" if args.index else ""
    print(
        f"{'rank':>4}  {'id':<24} {'len':>6} {'best':>7} "
        f"{'families':>8} {'repeat%':>8}{routed_col}"
    )
    for rank, rep in enumerate(reports, 1):
        if rep.failed:
            print(f"{rank:>4}  {rep.id[:24]:<24} {rep.length:>6} FAILED: {rep.error}")
            continue
        routed = f"  {rep.routed or '-'}" if args.index else ""
        print(
            f"{rank:>4}  {rep.id[:24]:<24} {rep.length:>6} {rep.best_score:>7g} "
            f"{rep.n_families:>8} {rep.repeat_fraction:>8.1%}{routed}"
        )
    if args.index and scanner.index_stats:
        s = scanner.index_stats
        print(
            f"index: {s.get('full', 0)} full / {s.get('defer', 0)} defer / "
            f"{s.get('skip', 0)} skip; builds={s.get('index_builds', 0)} "
            f"loads={s.get('index_loads', 0)}",
            file=sys.stderr,
        )
    failures = [rep for rep in reports if rep.failed]
    if failures:
        print(f"{len(failures)} of {len(reports)} record(s) failed", file=sys.stderr)
        return 1
    return 0


def _cmd_annotate(args: argparse.Namespace) -> int:
    import json

    from .annot import annotate_document, annotate_scan, validate_gff3
    from .core.scan import DatabaseScanner, load_scan_payload

    # A scan document starts with '{'; anything else is treated as FASTA.
    is_json = False
    if args.source != "-":
        with open(args.source, "r", encoding="utf-8") as fh:
            head = fh.read(64).lstrip()
        is_json = head.startswith("{")
    if is_json:
        with open(args.source, "r", encoding="utf-8") as fh:
            try:
                document = load_scan_payload(json.load(fh))
            except (ValueError, KeyError) as exc:
                raise SystemExit(f"bad scan document {args.source}: {exc}")
        annotation = annotate_document(
            document, window=args.window, msa=not args.no_msa
        )
    else:
        alphabet = alphabet_for(args.alphabet)
        source = sys.stdin if args.source == "-" else args.source
        records = read_fasta(source, alphabet)
        if not records:
            raise SystemExit("no FASTA records found")
        scanner = DatabaseScanner(
            finder=RepeatFinder(
                top_alignments=args.top_alignments, engine=args.engine
            ),
            mask=args.mask,
            min_length=args.min_length,
        )
        reports = scanner.scan(records)
        by_id: dict[str, list] = {}
        for record in records:
            by_id.setdefault(record.id, []).append(record)
        ordered = [
            (by_id[rep.id].pop(0) if by_id.get(rep.id) else None)
            for rep in reports
        ]
        annotation = annotate_scan(
            reports, ordered, window=args.window, msa=not args.no_msa
        )

    gff_text = annotation.gff3()
    problems = validate_gff3(gff_text)
    if problems:
        for problem in problems:
            print(f"gff3 validation: {problem}", file=sys.stderr)
        return 1
    outputs = {
        f"{args.prefix}.gff3": gff_text,
        f"{args.prefix}.profile.json": annotation.profile_json(),
        f"{args.prefix}.html": annotation.html(title=args.title),
        f"{args.prefix}.wig": annotation.wig(),
    }
    for path, text in outputs.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {path}")
    n_ok = sum(1 for entry in annotation.sequences if entry.ok)
    n_failed = len(annotation.sequences) - n_ok
    print(
        f"annotated {n_ok} sequence(s), {annotation.n_families} repeat "
        f"famil{'y' if annotation.n_families == 1 else 'ies'}"
        + (f"; {n_failed} record(s) failed" if n_failed else "")
    )
    return 0


def _cmd_align(args: argparse.Namespace) -> int:
    import numpy as np

    from .align import AlignmentProblem, full_matrix, render_alignment, traceback

    alphabet = alphabet_for(args.alphabet)
    if args.matrix in (None, "simple"):
        exchange = match_mismatch(alphabet, 2.0, -1.0)
    else:
        if alphabet.name != "protein":
            raise SystemExit(f"matrix {args.matrix} requires --alphabet protein")
        exchange = _MATRICES[args.matrix]()
    problem = AlignmentProblem.from_sequences(
        args.seq1.upper(), args.seq2.upper(), exchange,
        GapPenalties(args.gap_open, args.gap_extend),
    )
    matrix = full_matrix(problem)
    if matrix.max() <= 0:
        print("no positive-scoring local alignment")
        return 0
    end = np.unravel_index(np.argmax(matrix), matrix.shape)
    path = traceback(problem, matrix, int(end[0]), int(end[1]))
    top, mid, bot = render_alignment(problem, path)
    print(f"score {path.score:g} "
          f"(residues {path.start.y}-{path.end.y} vs {path.start.x}-{path.end.x})")
    for line in (top, mid, bot):
        print(f"  {line}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    from .align.search import search_database
    from .sequences.sequence import Sequence

    alphabet = alphabet_for(args.alphabet)
    if args.matrix in (None, "simple"):
        exchange = (
            _MATRICES["blosum62"]()
            if alphabet.name == "protein" and args.matrix is None
            else match_mismatch(alphabet, 2.0, -1.0)
        )
    else:
        if alphabet.name != "protein":
            raise SystemExit(f"matrix {args.matrix} requires --alphabet protein")
        exchange = _MATRICES[args.matrix]()
    source = sys.stdin if args.fasta == "-" else args.fasta
    database = read_fasta(source, alphabet)
    if not database:
        raise SystemExit("no FASTA records found")
    query = Sequence(args.query.upper(), alphabet, id="query")
    hits = search_database(
        query,
        database,
        exchange,
        GapPenalties(args.gap_open, args.gap_extend),
        lanes=args.lanes,
        top=args.top,
    )
    print(f"{'rank':>4}  {'id':<24} {'len':>6} {'score':>7}")
    for rank, hit in enumerate(hits, 1):
        print(f"{rank:>4}  {hit.id[:24]:<24} {hit.length:>6} {hit.score:>7g}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .scoring.gaps import GapPenalties as GP
    from .sequences.workloads import pseudo_titin
    from .simulate import (
        AlignmentOracle,
        ClusterConfig,
        ClusterSimulator,
        TraceRecorder,
        pentium3,
        pentium4,
    )

    machine = pentium3() if args.machine == "pentium3" else pentium4()
    seq = pseudo_titin(args.length, seed=1912)
    oracle = AlignmentOracle(seq, blosum62(), GP(8, 1))
    base = ClusterSimulator(
        oracle,
        ClusterConfig(
            processors=1, machine=machine, tier="conventional", dedicated_master=False
        ),
    ).run(args.top_alignments)
    recorder = TraceRecorder()
    sim = ClusterSimulator(
        oracle,
        ClusterConfig(processors=args.processors, machine=machine, tier=args.tier),
        trace=recorder,
    )
    result = sim.run(args.top_alignments)
    print(
        f"pseudo-titin {args.length} aa, k={args.top_alignments}, "
        f"P={args.processors} ({machine.name}, {args.tier} tier)"
    )
    print(f"  simulated makespan:     {result.makespan:.4f} s")
    print(f"  sequential baseline:    {base.makespan:.4f} s (conventional tier)")
    print(f"  speed improvement:      {base.makespan / result.makespan:.1f}x")
    print(f"  alignments executed:    {result.alignments_executed}")
    report = recorder.report(result.makespan, n_workers=args.processors - 1)
    print(f"  mean worker utilisation {report.mean_utilisation:.1%}, "
          f"traceback share {report.traceback_fraction:.1%}")
    if args.gantt:
        print(report.gantt())
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .core.report import analyze

    alphabet = alphabet_for(args.alphabet)
    source = sys.stdin if args.fasta == "-" else args.fasta
    records = read_fasta(source, alphabet)
    if not records:
        raise SystemExit("no FASTA records found")
    for record in records:
        report = analyze(
            record,
            top_alignments=args.top_alignments,
            gaps=GapPenalties(args.gap_open, args.gap_extend),
            max_gap=args.max_gap,
            significance_shuffles=args.shuffles,
        )
        print(report.render(dotplot=not args.no_dotplot))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.server import ServiceConfig, serve

    config = ServiceConfig(
        data_dir=args.data_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_capacity=args.queue_capacity,
        checkpoint_every=args.checkpoint_every,
        cluster_port=args.cluster_port,
        tenants_file=args.tenants,
        dispatch_window=args.dispatch_window,
    )
    return serve(config)


def _cmd_cluster(args: argparse.Namespace) -> int:
    if args.cluster_command == "coordinator":
        return _cluster_coordinator(args)
    if args.cluster_command == "node":
        from .cluster.node import node_main

        return node_main(
            args.join, node_id=args.node_id, max_shards=args.max_shards
        )
    return _cluster_scan(args)


def _cluster_coordinator(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .cluster.coordinator import Coordinator, CoordinatorConfig

    coordinator = Coordinator(
        CoordinatorConfig(
            host=args.host,
            port=args.port,
            scan_shard_size=args.scan_shard_size,
            lease_seconds=args.lease_seconds,
            node_timeout=args.node_timeout,
        )
    ).start()
    print(
        f"repro cluster coordinator listening on {coordinator.address}", flush=True
    )
    done = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: done.set())
    signal.signal(signal.SIGINT, lambda *_: done.set())
    done.wait()
    coordinator.stop()
    print("repro cluster coordinator stopped", flush=True)
    return 0


def _cluster_scan(args: argparse.Namespace) -> int:
    from .cluster.client import ClusterClient, ClusterError
    from .service.protocol import JobSpec

    host, _sep, port = args.join.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"--join expects host:port, got {args.join!r}")
    alphabet = alphabet_for(args.alphabet)
    source = sys.stdin if args.fasta == "-" else args.fasta
    records = read_fasta(source, alphabet)
    if not records:
        raise SystemExit("no FASTA records found")
    spec = JobSpec(
        sequence="AA",
        alphabet=args.alphabet,
        top_alignments=args.top_alignments,
        engine=args.engine,
    )
    payload = [{"id": rec.id, "sequence": rec.text} for rec in records]
    options = {"mask": args.mask, "min_length": args.min_length}
    if args.index:
        options["index"] = True
        options["index_k"] = args.index_k
    try:
        with ClusterClient(host, int(port)) as client:
            reports = client.scan(spec, payload, options, timeout=args.timeout)
    except (ClusterError, ConnectionError, TimeoutError) as exc:
        print(f"cluster scan failed: {exc}", file=sys.stderr)
        return 1
    ranked = sorted(
        reports,
        key=lambda r: (r["result"] is None, -r["best_score"], r["id"]),
    )
    print(f"{'rank':>4}  {'id':<24} {'len':>6} {'best':>7} {'families':>8} {'repeat%':>8}")
    for rank, rep in enumerate(ranked, 1):
        if rep["result"] is None:
            print(f"{rank:>4}  {rep['id'][:24]:<24} {rep['length']:>6} FAILED: {rep['error']}")
            continue
        print(
            f"{rank:>4}  {rep['id'][:24]:<24} {rep['length']:>6} "
            f"{rep['best_score']:>7g} {rep['n_families']:>8} "
            f"{rep['repeat_fraction']:>8.1%}"
        )
    failures = sum(1 for rep in reports if rep["result"] is None)
    if failures:
        print(f"{failures} of {len(reports)} record(s) failed", file=sys.stderr)
        return 1
    return 0


def _render_result_summary(payload: dict) -> str:
    lines = [
        f">{payload.get('sequence_id') or '<unnamed>'} length={payload['length']} "
        f"digest={payload['digest'][:16]}",
        f"  top alignments: {len(payload['top_alignments'])}  "
        f"repeat families: {len(payload['repeats'])}  "
        f"alignments computed: {payload['stats']['alignments']}",
    ]
    for repeat in payload["repeats"]:
        spans = ", ".join(f"{s}-{e}" for s, e in repeat["copies"])
        lines.append(
            f"  family {repeat['family']}: {repeat['n_copies']} copies "
            f"(~{repeat['unit_length']:.0f} aa, {repeat['columns']} conserved "
            f"cols): {spans}"
        )
    return "\n".join(lines)


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from .service.client import (
        ClientBacklogFull,
        ServiceAuthError,
        ServiceClient,
        ServiceError,
    )

    alphabet = alphabet_for(args.alphabet)
    source = sys.stdin if args.fasta == "-" else args.fasta
    records = read_fasta(source, alphabet)
    if not records:
        raise SystemExit("no FASTA records found")
    if args.idempotency_key and len(records) > 1:
        # One key maps to one job; reusing it across records would
        # replay the first record for all the rest.
        raise SystemExit("--idempotency-key requires a single-record FASTA")
    client = ServiceClient(args.url, api_key=args.api_key)
    job_ids: list[str] = []
    for record in records:
        spec = {
            "sequence": record.text,
            "alphabet": args.alphabet,
            "seq_id": record.id,
            "top_alignments": args.top_alignments,
            "matrix": args.matrix,
            "gap_open": args.gap_open,
            "gap_extend": args.gap_extend,
            "engine": args.engine,
            "group": args.group,
            "min_score": args.min_score,
            "max_gap": args.max_gap,
            "priority": args.priority,
            "index": args.index,
            "index_k": args.index_k,
        }
        try:
            job = client.submit(spec, idempotency_key=args.idempotency_key)
        except ServiceAuthError as exc:
            print(_auth_error_message(exc), file=sys.stderr)
            return 77  # EX_NOPERM
        except ClientBacklogFull as exc:
            print(
                f"service is shedding load ({exc.message}); retry in "
                f"{exc.retry_after}s ({len(job_ids)} of {len(records)} submitted)",
                file=sys.stderr,
            )
            return 75  # EX_TEMPFAIL
        except ServiceError as exc:
            print(f"submit failed for {record.id or '<unnamed>'}: {exc}", file=sys.stderr)
            return 1
        tag = (
            "replay" if job.get("replayed")
            else "cache" if job.get("from_cache")
            else job["state"]
        )
        print(f"job {job['id']} [{tag}] digest={job['digest'][:16]} id={record.id}")
        job_ids.append(job["id"])

    if not (args.wait or args.follow):
        return 0
    failed = 0
    for job_id in job_ids:
        if args.follow:
            for event in client.events(job_id, follow=True):
                print(f"  {job_id} {json.dumps(event, sort_keys=True)}")
        record = client.wait(job_id, timeout=args.timeout)
        if record["state"] != "done":
            failed += 1
            print(
                f"job {job_id} {record['state']}: {record.get('error', '')}",
                file=sys.stderr,
            )
            continue
        print(_render_result_summary(client.result(record["digest"])))
    return 1 if failed else 0


def _auth_error_message(exc) -> str:
    """A readable 401/403 for humans at a terminal."""
    if exc.code == 401:
        hint = "pass --api-key or set REPRO_API_KEY"
        detail = exc.message or "missing or unrecognized API key"
        return f"authentication failed: {detail} ({hint})"
    return f"access denied: {exc.message or 'tenant is disabled'}"


def _cmd_status(args: argparse.Namespace) -> int:
    import json

    from .service.client import ServiceAuthError, ServiceClient, ServiceError

    client = ServiceClient(args.url, api_key=args.api_key)
    try:
        record = client.status(args.job_id)
    except ServiceAuthError as exc:
        print(_auth_error_message(exc), file=sys.stderr)
        return 77  # EX_NOPERM
    except ServiceError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(json.dumps(record, indent=2, sort_keys=True))
    if args.events:
        for event in client.events(args.job_id):
            print(json.dumps(event, sort_keys=True))
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    import json

    from .service.client import ServiceAuthError, ServiceClient, ServiceError

    client = ServiceClient(args.url, api_key=args.api_key)
    try:
        payload = client.result(args.ref)
    except ServiceAuthError as exc:
        print(_auth_error_message(exc), file=sys.stderr)
        return 77  # EX_NOPERM
    except ServiceError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    if args.summary:
        print(_render_result_summary(payload))
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def main(argv: Seq[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        from .analysis.linter import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    handlers = {
        "find": _cmd_find,
        "scan": _cmd_scan,
        "annotate": _cmd_annotate,
        "align": _cmd_align,
        "search": _cmd_search,
        "generate": _cmd_generate,
        "bench": _cmd_bench,
        "simulate": _cmd_simulate,
        "report": _cmd_report,
        "serve": _cmd_serve,
        "cluster": _cmd_cluster,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "fetch": _cmd_fetch,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
