"""Command-line interface: ``python -m repro`` / the ``repro`` script.

One table, :data:`COMMANDS`: a row per subcommand with its name, help
line, flag declarations and handler.  Handlers import what they need
when they run, so ``import repro.cli`` loads no service, cluster,
gateway or analysis code.

The five commands that run a repeat search — ``find``, ``scan``,
``annotate``, ``cluster scan``, ``submit`` — declare their search flags
through one group (:func:`_search_flags`) and describe the search with
one :class:`~repro.service.protocol.JobSpec` (:func:`spec_from_args`):
the same flags mean the same search whichever command runs it.  The
three that scan many records also take the index tier's flags
(:func:`_index_flags`), which choose the records searched, not how.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence as Seq

from . import __version__
from .align.base import DEFAULT_ENGINE, DEFAULT_GROUP, ENGINE_NAMES
from .scoring.named import MATRIX_NAMES

__all__ = ["COMMANDS", "CLUSTER_COMMANDS", "main", "build_parser", "spec_from_args"]

_ALPHABETS = ("protein", "dna", "rna")


# -- Flag groups -----------------------------------------------------------


def _fasta_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "fasta", nargs="?", default="-", help="FASTA path or '-' for stdin"
    )


def _alphabet_flag(parser: argparse.ArgumentParser, default: str = "protein") -> None:
    parser.add_argument("--alphabet", default=default, choices=_ALPHABETS)


def _matrix_flag(parser: argparse.ArgumentParser, default: str | None = None) -> None:
    parser.add_argument(
        "--matrix",
        default=default,
        choices=MATRIX_NAMES,
        help="exchange matrix (default: "
        + (default or "blosum62 for protein, simple +2/-1 otherwise")
        + ")",
    )


def _gap_flags(
    parser: argparse.ArgumentParser, gap_open: float = 8.0, gap_extend: float = 1.0
) -> None:
    parser.add_argument("--gap-open", type=float, default=gap_open)
    parser.add_argument("--gap-extend", type=float, default=gap_extend)


def _search_flags(parser: argparse.ArgumentParser, *, k: int) -> None:
    """Every ``JobSpec`` field that has a flag; ``k`` is the command's
    ``-k`` default, the one thing the commands differ in."""
    add = parser.add_argument
    add("-k", "--top-alignments", type=int, default=k)
    _alphabet_flag(parser)
    _matrix_flag(parser)
    _gap_flags(parser)
    add("--engine", default=DEFAULT_ENGINE, choices=ENGINE_NAMES)
    add("--group", type=int, default=DEFAULT_GROUP,
        help="stale tasks realigned per engine batch (1 = sequential best-first)")
    add("--min-score", type=float, default=0.0,
        help="alignments scoring at or below this are not reported")
    add("--max-gap", type=int, default=0)


def _index_flags(parser: argparse.ArgumentParser) -> None:
    add = parser.add_argument
    add("--index", action=argparse.BooleanOptionalAction, default=False,
        help="use the k-mer index tier: skip records it proves below "
        "--min-score, search the most promising first (tops unchanged)")
    add("--index-k", type=int, default=0, help="k-mer width (0 = per-alphabet default)")


def _prune_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--prune", action=argparse.BooleanOptionalAction, default=True,
        help="exact block bounds on the first passes (bit-identical "
        "results; --no-prune gives every split a first pass)",
    )


def _scanner_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mask", action="store_true", help="mask low-complexity tracts")
    parser.add_argument("--min-length", type=int, default=10)


def _client_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--url", default="http://127.0.0.1:8765")
    parser.add_argument(
        "--api-key", default=None,
        help="tenant API key (default: the REPRO_API_KEY environment "
        "variable); required when the service runs with --tenants",
    )


# -- Shared steps ----------------------------------------------------------


def _read_records(path: str, alphabet: str) -> list:
    from .sequences.alphabet import alphabet_for
    from .sequences.fasta import read_fasta

    letters = alphabet_for(alphabet)
    try:
        records = read_fasta(sys.stdin if path == "-" else path, letters)
    except (ValueError, OSError, EOFError) as exc:
        # Not ASCII (a BOM, a stray byte), unreadable, or a truncated
        # .gz: the file's fault, so one line naming it, not a traceback.
        raise SystemExit(f"cannot read FASTA {path}: {exc}") from None
    if not records:
        raise SystemExit("no FASTA records found")
    return records


def _from_flags(cls, args: argparse.Namespace, **fields):
    """An instance of dataclass ``cls`` from the flags named after its fields."""
    known = cls.__dataclass_fields__
    return cls(**{k: v for k, v in vars(args).items() if k in known}, **fields)


def spec_from_args(
    args: argparse.Namespace, sequence: str | None = None, seq_id: str = ""
):
    """The :class:`JobSpec` the search flags (and ``--priority``) describe.

    Without a ``sequence`` the spec describes the search alone (what
    ``find``/``scan``/``annotate`` run locally and ``cluster scan``
    ships with its records).  An invalid combination is a usage error.
    """
    from .service.protocol import SCAN_PLACEHOLDER, JobSpec, SpecError

    if sequence is None:
        sequence = SCAN_PLACEHOLDER
    try:
        return _from_flags(JobSpec, args, sequence=sequence, seq_id=seq_id)
    except SpecError as exc:
        raise SystemExit(str(exc)) from None


def _finder(args: argparse.Namespace):
    from .service.protocol import finder_for

    return finder_for(spec_from_args(args), prune=getattr(args, "prune", True))


def _scanner(args: argparse.Namespace, index_cache: str | None = None):
    """The ``DatabaseScanner`` behind ``scan`` and ``annotate``."""
    from .core.scan import DatabaseScanner

    index_config = index_store = None
    if args.index:
        from .index import IndexConfig, IndexStore

        index_config = IndexConfig(k=args.index_k)
        if index_cache:
            index_store = IndexStore(index_cache)
    return DatabaseScanner(
        finder=_finder(args),
        mask=args.mask,
        min_length=args.min_length,
        index=index_config,
        index_store=index_store,
    )


def _exchange(args: argparse.Namespace):
    from .scoring.named import exchange_for
    from .sequences.alphabet import alphabet_for

    try:
        return exchange_for(args.matrix, alphabet_for(args.alphabet))
    except ValueError as exc:
        raise SystemExit(str(exc)) from None


def _print_rank_table(rows: list[dict], *, routed: bool = False) -> int:
    """Print the rank table of report rows; exit code 1 if any failed."""
    from .core.scan import render_rank_table

    print(render_rank_table(rows, routed=routed))
    failures = sum(1 for row in rows if row["result"] is None)
    if failures:
        print(f"{failures} of {len(rows)} record(s) failed", file=sys.stderr)
    return 1 if failures else 0


# -- find / scan / annotate ------------------------------------------------


def _find_flags(parser: argparse.ArgumentParser) -> None:
    _fasta_arg(parser)
    _search_flags(parser, k=20)
    _prune_flag(parser)
    parser.add_argument("--show-alignments", action="store_true")
    parser.add_argument(
        "--msa", action="store_true",
        help="render a multiple alignment of each repeat family's copies",
    )


def _cmd_find(args: argparse.Namespace) -> int:
    from .core.result import render_summary

    records = _read_records(args.fasta, args.alphabet)
    finder = _finder(args)
    for record in records:
        result = finder.find(record)
        print(
            render_summary(
                {"sequence_id": record.id, "length": len(record), **result.to_dict()}
            )
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


def _scan_flags(parser: argparse.ArgumentParser) -> None:
    _fasta_arg(parser)
    _search_flags(parser, k=10)
    _index_flags(parser)
    _prune_flag(parser)
    _scanner_flags(parser)
    add = parser.add_argument
    add("--limit", type=int, default=0, help="print only the top N")
    add("--index-threshold", dest="min_score", type=float, default=argparse.SUPPRESS,
        help="older spelling of --min-score: with --index, records the index "
        "proves below it are skipped entirely")
    add("--index-cache", default=None, metavar="DIR",
        help="content-addressed index store (warm reruns rebuild nothing)")
    add("--json", default=None, metavar="PATH",
        help="also write the machine-readable scan document (copy "
        "coordinates, scores, routing, residues) — the input that "
        "'repro annotate' consumes offline")


def _cmd_scan(args: argparse.Namespace) -> int:
    from .core.scan import scan_to_payload

    records = _read_records(args.fasta, args.alphabet)
    scanner = _scanner(args, index_cache=args.index_cache)
    payload = scan_to_payload(
        scanner.rank(records),
        records,
        alphabet=args.alphabet,
        index_stats=scanner.index_stats or None,
    )
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
        print(f"wrote {args.json}", file=sys.stderr)
    rows = payload["records"]
    code = _print_rank_table(rows[: args.limit or len(rows)], routed=args.index)
    if args.index and scanner.index_stats:
        s = scanner.index_stats
        print(
            f"index: {s.get('full', 0)} full / {s.get('defer', 0)} defer / "
            f"{s.get('skip', 0)} skip; builds={s.get('index_builds', 0)} "
            f"loads={s.get('index_loads', 0)}",
            file=sys.stderr,
        )
    return code


def _annotate_flags(parser: argparse.ArgumentParser) -> None:
    add = parser.add_argument
    add("source",
        help="a 'repro scan --json' document, or a FASTA file to scan "
        "first ('-' = FASTA on stdin)")
    add("--prefix", default="repro-annot",
        help="output prefix: writes <prefix>.gff3, <prefix>.profile.json, "
        "<prefix>.html and <prefix>.wig")
    add("--window", type=int, default=0,
        help="profile window width in residues (0 = auto, ~120 windows)")
    add("--title", default="repro repeat annotation", help="HTML report title")
    add("--no-msa", action="store_true",
        help="skip per-family multiple alignments in the HTML report")
    _search_flags(parser, k=10)
    _index_flags(parser)
    _scanner_flags(parser)


def _cmd_annotate(args: argparse.Namespace) -> int:
    import json

    from .annot import annotate_document, validate_gff3
    from .core.scan import load_scan_payload

    # A scan document starts with '{'; anything else is treated as FASTA.
    document = None
    if args.source != "-":
        with open(args.source, "r", encoding="utf-8") as fh:
            if fh.read(64).lstrip().startswith("{"):
                fh.seek(0)
                try:
                    document = load_scan_payload(json.load(fh))
                except (ValueError, KeyError) as exc:
                    raise SystemExit(f"bad scan document {args.source}: {exc}")
    if document is not None:
        annotation = annotate_document(
            document, window=args.window, msa=not args.no_msa
        )
    else:
        annotation = _scanner(args).annotate_scan(
            _read_records(args.source, args.alphabet),
            window=args.window,
            msa=not args.no_msa,
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


# -- align / search / generate / report ------------------------------------


def _align_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("seq1", help="first sequence (text, vertical)")
    parser.add_argument("seq2", help="second sequence (text, horizontal)")
    _alphabet_flag(parser, "dna")
    _matrix_flag(parser, "simple")
    _gap_flags(parser, 2.0, 1.0)


def _cmd_align(args: argparse.Namespace) -> int:
    import numpy as np

    from .align import AlignmentProblem, full_matrix, render_alignment, traceback
    from .scoring.gaps import GapPenalties

    problem = AlignmentProblem.from_sequences(
        args.seq1.upper(), args.seq2.upper(), _exchange(args),
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


def _search_cmd_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("query", help="query sequence text")
    _fasta_arg(parser)
    _alphabet_flag(parser)
    _matrix_flag(parser)
    _gap_flags(parser)
    parser.add_argument("--lanes", type=int, default=8)
    parser.add_argument("--top", type=int, default=10)


def _cmd_search(args: argparse.Namespace) -> int:
    from .align.search import search_database
    from .scoring.gaps import GapPenalties
    from .sequences.sequence import Sequence

    exchange = _exchange(args)
    database = _read_records(args.fasta, args.alphabet)
    query = Sequence(args.query.upper(), args.alphabet, id="query")
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


def _generate_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("kind", choices=["titin", "implanted"])
    parser.add_argument("--length", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--unit-length", type=int, default=40)
    parser.add_argument("--copies", type=int, default=4)
    parser.add_argument("--divergence", type=float, default=0.3)
    parser.add_argument("--output", default="-")


def _cmd_generate(args: argparse.Namespace) -> int:
    from .sequences.fasta import write_fasta
    from .sequences.workloads import RepeatSpec, implant_repeats, pseudo_titin

    if args.kind == "titin":
        seq = pseudo_titin(args.length, seed=args.seed)
    else:
        seq = implant_repeats(
            args.length,
            RepeatSpec(
                unit_length=args.unit_length,
                copies=args.copies,
                substitution_rate=args.divergence,
            ),
            seed=args.seed,
        ).sequence
    write_fasta(seq, sys.stdout if args.output == "-" else args.output)
    return 0


def _report_flags(parser: argparse.ArgumentParser) -> None:
    _fasta_arg(parser)
    parser.add_argument("-k", "--top-alignments", type=int, default=15)
    _alphabet_flag(parser)
    _gap_flags(parser)
    parser.add_argument("--max-gap", type=int, default=1)
    parser.add_argument(
        "--shuffles", type=int, default=0, help="shuffle-null significance (0 = skip)"
    )
    parser.add_argument("--no-dotplot", action="store_true")


def _cmd_report(args: argparse.Namespace) -> int:
    from .core.report import analyze
    from .scoring.gaps import GapPenalties

    for record in _read_records(args.fasta, args.alphabet):
        report = analyze(
            record,
            top_alignments=args.top_alignments,
            gaps=GapPenalties(args.gap_open, args.gap_extend),
            max_gap=args.max_gap,
            significance_shuffles=args.shuffles,
        )
        print(report.render(dotplot=not args.no_dotplot))
    return 0


# -- serve / cluster -------------------------------------------------------


def _serve_flags(parser: argparse.ArgumentParser) -> None:
    """Each flag is named after the ``ServiceConfig`` field it sets."""
    add = parser.add_argument
    add("--host", default="127.0.0.1")
    add("--port", type=int, default=8765, help="0 = ephemeral")
    add("--workers", type=int, default=2, help="0 = no in-process pool")
    add("--queue-capacity", type=int, default=64, help="0 = unbounded")
    add("--data-dir", default="repro-service-data")
    add("--cluster-port", type=int, default=None,
        help="also run a cluster coordinator on this port (0 = ephemeral) "
        "for `repro cluster scan`; POST /jobs still runs on the local workers")
    add("--tenants", dest="tenants_file", default=None, metavar="FILE",
        help="tenant config JSON (API keys, weights, quotas); omitted = "
        "open mode, every request is the unlimited public tenant. "
        "SIGHUP hot-reloads the file")


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.server import ServiceConfig, serve

    return serve(_from_flags(ServiceConfig, args))


def _coordinator_flags(parser: argparse.ArgumentParser) -> None:
    """Each flag is named after the ``CoordinatorConfig`` field it sets."""
    add = parser.add_argument
    add("--host", default="127.0.0.1")
    add("--port", type=int, default=9410, help="0 = ephemeral")
    add("--scan-shard-size", type=int, default=4, help="records per scan shard")
    add("--lease-seconds", type=float, default=60.0, help="shard lease deadline")
    add("--node-timeout", type=float, default=6.0, help="heartbeat staleness bound")


def _cmd_coordinator(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .cluster.coordinator import Coordinator, CoordinatorConfig

    coordinator = Coordinator(_from_flags(CoordinatorConfig, args)).start()
    print(f"repro cluster coordinator listening on {coordinator.address}", flush=True)
    done = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: done.set())
    signal.signal(signal.SIGINT, lambda *_: done.set())
    done.wait()
    coordinator.stop()
    print("repro cluster coordinator stopped", flush=True)
    return 0


def _join_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--join", required=True, metavar="HOST:PORT", help="coordinator address"
    )


def _node_flags(parser: argparse.ArgumentParser) -> None:
    _join_flag(parser)
    add = parser.add_argument
    add("--node-id", default="", help="default: hostname-pid")
    add("--max-shards", type=int, default=0, help="exit after N shards (0 = unbounded)")


def _cmd_node(args: argparse.Namespace) -> int:
    from .cluster.node import node_main

    return node_main(args.join, node_id=args.node_id, max_shards=args.max_shards)


def _cluster_scan_flags(parser: argparse.ArgumentParser) -> None:
    _fasta_arg(parser)
    _join_flag(parser)
    _search_flags(parser, k=10)
    _index_flags(parser)
    _scanner_flags(parser)
    parser.add_argument("--timeout", type=float, default=600.0)


def _cmd_cluster_scan(args: argparse.Namespace) -> int:
    from .cluster.client import ClusterClient, ClusterError

    host, _sep, port = args.join.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"--join expects host:port, got {args.join!r}")
    records = _read_records(args.fasta, args.alphabet)
    payload = [{"id": rec.id, "sequence": rec.text} for rec in records]
    options = {"mask": args.mask, "min_length": args.min_length}
    if args.index:
        options["index"] = True
        options["index_k"] = args.index_k
    try:
        with ClusterClient(host, int(port)) as client:
            reports = client.scan(
                spec_from_args(args), payload, options, timeout=args.timeout
            )
    except (ClusterError, ConnectionError, TimeoutError) as exc:
        print(f"cluster scan failed: {exc}", file=sys.stderr)
        return 1
    return _print_rank_table(reports)


def _cluster_flags(parser: argparse.ArgumentParser) -> None:
    _add_commands(
        parser.add_subparsers(dest="cluster_command", required=True),
        CLUSTER_COMMANDS,
    )


# -- submit / status / fetch -----------------------------------------------


def _submit_flags(parser: argparse.ArgumentParser) -> None:
    _fasta_arg(parser)
    _client_flags(parser)
    _search_flags(parser, k=20)
    add = parser.add_argument
    add("--priority", type=int, default=0, help="higher runs earlier")
    add("--wait", action="store_true", help="block until every job finishes")
    add("--follow", action="store_true", help="stream progress events (implies --wait)")
    add("--timeout", type=float, default=600.0)
    add("--idempotency-key", default=None,
        help="replay-safe submission key (single-record submits only): a "
        "duplicate POST returns the original job instead of a new one")


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    from .core.result import render_summary
    from .service.client import (
        ClientBacklogFull,
        ServiceAuthError,
        ServiceClient,
        ServiceError,
    )

    records = _read_records(args.fasta, args.alphabet)
    if args.idempotency_key and len(records) > 1:
        # One key maps to one job; reusing it across records would
        # replay the first record for all the rest.
        raise SystemExit("--idempotency-key requires a single-record FASTA")
    client = ServiceClient(args.url, api_key=args.api_key)
    job_ids: list[str] = []
    for record in records:
        spec = spec_from_args(args, record.text, record.id)
        try:
            job = client.submit(spec.to_dict(), idempotency_key=args.idempotency_key)
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
        print(render_summary(client.result(record["digest"])))
    return 1 if failed else 0


def _auth_error_message(exc) -> str:
    """A readable 401/403 for humans at a terminal."""
    if exc.code == 401:
        hint = "pass --api-key or set REPRO_API_KEY"
        detail = exc.message or "missing or unrecognized API key"
        return f"authentication failed: {detail} ({hint})"
    return f"access denied: {exc.message or 'tenant is disabled'}"


def _service_call(args: argparse.Namespace, call: Callable) -> tuple[int, object]:
    """``call(client)`` against the service at ``--url``: ``(exit code,
    value)``, errors already reported on stderr."""
    from .service.client import ServiceAuthError, ServiceClient, ServiceError

    client = ServiceClient(args.url, api_key=args.api_key)
    try:
        return 0, call(client)
    except ServiceAuthError as exc:
        print(_auth_error_message(exc), file=sys.stderr)
        return 77, None  # EX_NOPERM
    except ServiceError as exc:
        print(str(exc), file=sys.stderr)
        return 1, None


def _status_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("job_id")
    _client_flags(parser)
    parser.add_argument(
        "--events", action="store_true", help="also print the job's event lines"
    )


def _cmd_status(args: argparse.Namespace) -> int:
    import json

    def call(client):
        print(json.dumps(client.status(args.job_id), indent=2, sort_keys=True))
        if args.events:
            for event in client.events(args.job_id):
                print(json.dumps(event, sort_keys=True))

    return _service_call(args, call)[0]


def _fetch_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("ref", help="result digest (full or unique prefix) or job id")
    _client_flags(parser)
    parser.add_argument(
        "--summary", action="store_true", help="render a summary instead of raw JSON"
    )


def _cmd_fetch(args: argparse.Namespace) -> int:
    import json

    from .core.result import render_summary

    code, payload = _service_call(args, lambda client: client.result(args.ref))
    if code == 0:
        print(
            render_summary(payload)
            if args.summary
            else json.dumps(payload, indent=2, sort_keys=True)
        )
    return code


# -- The command table -----------------------------------------------------

#: ``(name, help, add_flags, handler)`` per subcommand.
COMMANDS = (
    ("find", "detect repeats in FASTA sequences", _find_flags, _cmd_find),
    ("scan", "rank FASTA records by repeat content", _scan_flags, _cmd_scan),
    ("annotate", "render scan results as GFF3 + profile JSON + HTML report",
     _annotate_flags, _cmd_annotate),
    ("align", "align two sequences and render them", _align_flags, _cmd_align),
    ("search", "rank FASTA records by best local alignment to a query",
     _search_cmd_flags, _cmd_search),
    ("generate", "emit a synthetic workload as FASTA", _generate_flags, _cmd_generate),
    ("report", "full analysis report for FASTA sequences", _report_flags, _cmd_report),
    # Listed for --help only: main() hands everything after "lint" to
    # repro.analysis.linter.main, which owns the flags.
    ("lint", "project-specific static analysis (invariant-guarding rules; "
     "'repro lint --help' lists its flags)", None, None),
    ("serve", "run the repeat-finder job service (HTTP + worker pool)",
     _serve_flags, _cmd_serve),
    ("cluster", "multi-node sharded execution (coordinator / node / scan)",
     _cluster_flags, None),
    ("submit", "submit FASTA records to a service", _submit_flags, _cmd_submit),
    ("status", "show a service job record", _status_flags, _cmd_status),
    ("fetch", "fetch a cached result by digest or job id", _fetch_flags, _cmd_fetch),
)

#: The rows under ``repro cluster``.
CLUSTER_COMMANDS = (
    ("coordinator", "run a standalone cluster coordinator",
     _coordinator_flags, _cmd_coordinator),
    ("node", "run a worker node agent", _node_flags, _cmd_node),
    ("scan", "rank FASTA records by repeat content, sharded over a cluster",
     _cluster_scan_flags, _cmd_cluster_scan),
)


def _add_commands(subparsers, table) -> None:
    for name, help_text, add_flags, handler in table:
        parser = subparsers.add_parser(name, help=help_text)
        if add_flags is not None:
            add_flags(parser)
        if handler is not None:
            parser.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Internal-repeat detection via parallel top alignments "
        "(Romein, Heringa & Bal, SC 2003 reproduction).",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    _add_commands(parser.add_subparsers(dest="command", required=True), COMMANDS)
    return parser


def main(argv: Seq[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["lint"]:
        from .analysis.linter import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
