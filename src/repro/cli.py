"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` — produce an XMark-style auction document,
* ``index``    — parse an XML file and save the MASS store to disk,
* ``stats``    — show store statistics (node counts, pages, index heights),
* ``query``    — run an XPath query against an XML file or a saved store,
  with ``--explain`` for the annotated plan and optimizer trace, and
  ``--timeout`` / ``--max-pages`` / ``--max-results`` resource limits,
* ``check``    — static analysis of an XPath expression without running
  it: plan invariant verification, inferred operator properties, and the
  schema satisfiability verdict (exit 3 when provably empty),
* ``fsck``     — diagnose a saved store file (checksums, record framing)
  and optionally salvage the valid prefix to a new store; given a shard
  directory, verify every per-shard store and summarize the fleet,
* ``verify-rules`` — translation validation of the rewrite-rule library:
  every rule is applied at every matching site of its query pool and the
  pre/post plans are executed over an exhaustively enumerated document
  corpus, cross-checked against the DOM baseline, plus the
  estimator-soundness pass on Q1-Q5 (exit 1 on any failure),
* ``serve``    — run the concurrent query server over a document: a
  line-protocol TCP front end (one XPath or JSON request per line, one
  JSON response per line) over the snapshot-isolated worker pool,
* ``bench-serving`` — measure QPS and p50/p99 latency at 1/8/64
  concurrent clients with a live writer, and write
  ``BENCH_serving.json``,
* ``race``     — run the seeded chaos swarm under the Eraser-style
  dynamic race detector: every lock acquire/release and every watched
  serving-state field access is traced, and any field whose candidate
  lockset drains to the empty set is reported (exit 1),
* ``shard-build`` — partition a document collection (hash/round-robin)
  or one huge document (subtree key ranges) into a shard directory,
* ``shard-query`` — scatter a query over a shard directory's worker
  fleet, merge and print the gathered result (``--explain`` shows the
  routing/pruning decision and per-shard plans),
* ``bench-shard`` — measure scatter-gather scaling at 1/2/4/8 workers
  and write ``BENCH_shard.json``.

``serve`` accepts a shard directory too — the TCP front end then fronts
the whole worker fleet through the same line protocol.

Files ending in ``.mass`` are treated as saved stores everywhere.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.errors import ReproError
from repro.mass.loader import load_document
from repro.mass.persistence import fsck_store, open_store, save_store
from repro.mass.store import MassStore
from repro.engine.engine import VamanaEngine
from repro.xmark.generator import XmarkGenerator
from repro.xmark.profile import factor_for_megabytes


def _load_any(path: str) -> MassStore:
    """Open a ``.mass`` store or parse+index an XML file."""
    if path.endswith(".mass"):
        return open_store(path)
    return load_document(path)


def _cmd_generate(args: argparse.Namespace) -> int:
    factor = args.factor
    if factor is None:
        factor = factor_for_megabytes(args.megabytes)
    generator = XmarkGenerator(seed=args.seed)
    started = time.perf_counter()
    with open(args.output, "w", encoding="utf-8") as out:
        written = generator.write(out, factor)
    elapsed = time.perf_counter() - started
    print(f"wrote {written / 1e6:.2f} MB to {args.output} "
          f"(factor {factor}, seed {args.seed}) in {elapsed:.2f}s")
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    store = load_document(args.input)
    built = time.perf_counter() - started
    size = save_store(store, args.output)
    print(f"indexed {len(store.node_index)} nodes in {built:.2f}s; "
          f"saved {size / 1e6:.2f} MB to {args.output}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    store = _load_any(args.input)
    print(f"document: {store.name}")
    print(store.statistics().describe())
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    store = _load_any(args.input)
    engine = VamanaEngine(store)
    if args.explain:
        print(engine.explain(args.xpath, optimize=not args.no_optimize))
        print()
    result = engine.evaluate(
        args.xpath,
        optimize=not args.no_optimize,
        timeout_ms=args.timeout,
        max_pages=args.max_pages,
        max_results=args.max_results,
    )
    if args.xml:
        for fragment in result.to_xml():
            print(fragment)
    else:
        limit = args.limit if args.limit > 0 else len(result)
        for label in result.labels(limit):
            print(label)
        if limit < len(result):
            print(f"... ({len(result) - limit} more)")
    print(f"-- {result.metrics.describe()}", file=sys.stderr)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis.plan_verifier import describe_properties, verify_plan
    from repro.analysis.satisfiability import SatisfiabilityAnalyzer, xmark_schema
    from repro.xpath.parser import parse_xpath

    if args.input is not None:
        # Against a real document: the engine picks the schema, optimizes
        # with the verification gate on, and reports any rejected rewrite.
        store = _load_any(args.input)
        engine = VamanaEngine(store)
        plan, trace = engine.plan(args.xpath, optimize=not args.no_optimize)
        verify_plan(plan)
        print(describe_properties(plan))
        if trace is not None and trace.invariant_errors:
            for error in trace.invariant_errors:
                print(f"rejected rewrite: {error}")
        report = engine.satisfiability(args.xpath)
    else:
        # No document: verify the default plan and judge satisfiability
        # against the XMark grammar.
        from repro.algebra.builder import build_default_plan

        plan = build_default_plan(args.xpath)
        verify_plan(plan)
        print(describe_properties(plan))
        report = SatisfiabilityAnalyzer(xmark_schema()).analyze(
            parse_xpath(args.xpath)
        )
    print(f"invariants: ok\nsatisfiability: {report.describe()}")
    return 3 if not report.satisfiable else 0


def _cmd_fsck(args: argparse.Namespace) -> int:
    import os

    if os.path.isdir(args.store):
        # A shard directory: verify every per-shard store the manifest
        # names; exit non-zero if any shard is damaged or missing.
        from repro.sharding import fsck_shards

        if args.salvage:
            print("error: --salvage applies to single store files",
                  file=sys.stderr)
            return 2
        shard_report = fsck_shards(args.store)
        print(shard_report.describe())
        return 0 if shard_report.ok else 1
    report = fsck_store(args.store)
    print(report.describe())
    if args.salvage:
        try:
            store = open_store(args.store, recover=True)
        except ReproError as error:
            print(f"salvage failed: {error}", file=sys.stderr)
            return 1
        size = save_store(store, args.salvage)
        print(
            f"salvaged {len(store.node_index)} records "
            f"({report.dropped_records} dropped) to {args.salvage} "
            f"({size / 1e6:.2f} MB)"
        )
    return 0 if report.ok else 1


def _cmd_verify_rules(args: argparse.Namespace) -> int:
    from repro.analysis.tv.runner import verify_rules

    report = verify_rules(
        quick=not args.exhaustive,
        seed=args.seed,
        shrink=not args.no_shrink,
    )
    print(report.describe())
    if args.fixtures and report.failures:
        import os

        os.makedirs(args.fixtures, exist_ok=True)
        for index, failure in enumerate(report.failures):
            if failure.reproducer is None:
                continue
            path = os.path.join(
                args.fixtures, f"{failure.rule}-{index}.json"
            )
            failure.reproducer.write(path)
            print(f"wrote {path}", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import os

    from repro.serving import QueryServer, TcpFrontend

    if os.path.isdir(args.input):
        # A shard directory: front the worker fleet instead of one store.
        from repro.sharding import ShardedDatabase, ShardQueryServer

        database = ShardedDatabase(args.input)
        server = ShardQueryServer(database)
        frontend = TcpFrontend(server, host=args.host, port=args.port)
        host, port = frontend.address
        print(f"serving shard directory {args.input} on {host}:{port} "
              f"({database.manifest.shard_count} shard worker(s), "
              f"scheme {database.manifest.scheme}) — Ctrl-C to stop")
        try:
            frontend.serve_forever()
        except KeyboardInterrupt:
            print("\nshutting down")
        finally:
            frontend.stop()
            server.close()
        return 0

    store = _load_any(args.input)
    server = QueryServer(
        store,
        workers=args.workers,
        max_queue_depth=args.queue_depth,
        default_timeout_ms=args.timeout,
        default_max_pages=args.max_pages,
        default_max_results=args.max_results,
        shed_cost_limit=args.shed_cost,
        shed_policy=args.shed_policy,
    )
    frontend = TcpFrontend(server, host=args.host, port=args.port)
    host, port = frontend.address
    print(f"serving {args.input} on {host}:{port} "
          f"({args.workers} worker(s), queue depth "
          f"{server.admission.max_queue_depth}) — Ctrl-C to stop")
    try:
        frontend.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        frontend.stop()
        server.close()
    return 0


def _cmd_bench_serving(args: argparse.Namespace) -> int:
    from repro.bench.serving import run_serving_bench, summarize, write_report

    levels = None
    if args.clients:
        try:
            levels = tuple(int(part) for part in args.clients.split(",") if part.strip())
        except ValueError:
            print(f"error: --clients expects comma-separated integers, got {args.clients!r}", file=sys.stderr)
            return 2
        if not levels or any(level < 1 for level in levels):
            print(f"error: --clients values must be positive, got {args.clients!r}", file=sys.stderr)
            return 2
    started = time.perf_counter()
    options = {"quick": args.quick, "seed": args.seed, "workers": args.workers}
    if levels is not None:
        options["levels"] = levels
    if args.size_mb is not None:
        options["size_mb"] = args.size_mb
    report = run_serving_bench(**options)
    elapsed = time.perf_counter() - started
    write_report(report, args.output)
    print(summarize(report))
    print(f"-- wrote {args.output} in {elapsed:.2f}s", file=sys.stderr)
    criteria = report.get("criteria")
    return 0 if criteria is None or criteria["ok"] else 1


def _cmd_shard_build(args: argparse.Namespace) -> int:
    from repro.sharding import build_shards, build_subtree_shards

    stores = [(path, _load_any(path)) for path in args.inputs]
    started = time.perf_counter()
    if args.scheme == "subtree":
        if len(stores) != 1:
            print("error: --scheme subtree partitions exactly one document",
                  file=sys.stderr)
            return 2
        manifest = build_subtree_shards(stores[0][1], args.output, args.shards)
    else:
        manifest = build_shards(stores, args.output, args.shards, args.scheme)
    elapsed = time.perf_counter() - started
    print(f"built {manifest.shard_count} shard(s) ({manifest.scheme}) "
          f"from {len(stores)} document(s), {manifest.total_nodes} nodes, "
          f"in {elapsed:.2f}s -> {args.output}")
    for spec in manifest.shards:
        names = ", ".join(doc["name"] for doc in spec.documents) or "(empty)"
        print(f"  shard {spec.shard_id}: {spec.total_nodes} nodes — {names}")
    return 0


def _cmd_shard_query(args: argparse.Namespace) -> int:
    from repro.sharding import ShardedDatabase

    database = ShardedDatabase(args.directory)
    try:
        if args.explain:
            print(database.explain(args.xpath))
            return 0
        started = time.perf_counter()
        outcome = database.evaluate(
            args.xpath,
            timeout_ms=args.timeout,
            max_pages=args.max_pages,
            max_results=args.max_results,
        )
        elapsed = time.perf_counter() - started
        print(outcome.describe())
        labels = outcome.labels()
        limit = args.limit if args.limit > 0 else len(labels)
        for label in labels[:limit]:
            print(f"  {label}")
        if len(labels) > limit:
            print(f"  ... and {len(labels) - limit} more")
        print(f"-- {elapsed * 1000:.1f} ms, counters "
              f"{ {k: v for k, v in sorted(outcome.counters.items())} }",
              file=sys.stderr)
        return 0 if outcome.ok else 1
    finally:
        database.close()


def _cmd_bench_shard(args: argparse.Namespace) -> int:
    from repro.bench.shard import run_shard_bench, summarize, write_report

    workers = None
    if args.workers:
        try:
            workers = tuple(int(part) for part in args.workers.split(",") if part.strip())
        except ValueError:
            print(f"error: --workers expects comma-separated integers, got {args.workers!r}", file=sys.stderr)
            return 2
        if not workers or any(count < 1 for count in workers):
            print(f"error: --workers values must be positive, got {args.workers!r}", file=sys.stderr)
            return 2
    started = time.perf_counter()
    options = {"quick": args.quick, "seed": args.seed}
    if workers is not None:
        options["worker_counts"] = workers
    report = run_shard_bench(**options)
    elapsed = time.perf_counter() - started
    write_report(report, args.output)
    print(summarize(report))
    print(f"-- wrote {args.output} in {elapsed:.2f}s", file=sys.stderr)
    return 0 if report["criteria"]["ok"] else 1


def _cmd_race(args: argparse.Namespace) -> int:
    from repro.serving.chaos import ChaosConfig, run_chaos

    options = {"seed": args.seed, "fault_rates": {}}
    if args.quick:
        options.update(readers=8, queries_per_reader=2, writer_batches=2)
    if args.readers is not None:
        options["readers"] = args.readers
    if args.writer_batches is not None:
        options["writer_batches"] = args.writer_batches
    if args.workers is not None:
        options["workers"] = args.workers
    started = time.perf_counter()
    report = run_chaos(ChaosConfig(**options), race_detect=True)
    elapsed = time.perf_counter() - started
    print(report.summary())
    print(f"-- instrumented swarm finished in {elapsed:.2f}s", file=sys.stderr)
    return 0 if report.ok else 1


def _cmd_model_check(args: argparse.Namespace) -> int:
    from repro.analysis.statespace.runner import render_report, run_model_check

    conformance_runs = (
        {"snapshot_runs": 100, "shard_runs": 4, "crash_shard_runs": 2}
        if not args.exhaustive
        else {"snapshot_runs": 200, "shard_runs": 8, "crash_shard_runs": 4}
    )
    report = run_model_check(
        exhaustive=args.exhaustive,
        max_depth=args.depth,
        conformance=not args.no_conformance,
        **(conformance_runs if not args.no_conformance else {}),
    )
    print(render_report(report))
    if args.output:
        import json

        with open(args.output, "w", encoding="utf-8") as sink:
            json.dump(report, sink, indent=2, sort_keys=True)
        print(f"-- report written to {args.output}", file=sys.stderr)
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VAMANA — a scalable cost-driven XPath engine (ICDE 2005)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="generate an XMark auction document")
    scale = generate.add_mutually_exclusive_group()
    scale.add_argument("--factor", type=float, default=None, help="XMark scale factor")
    scale.add_argument("--megabytes", type=float, default=10.0,
                       help="paper-style size label (100 MB = factor 1.0)")
    generate.add_argument("--seed", type=int, default=42)
    generate.add_argument("-o", "--output", required=True)
    generate.set_defaults(handler=_cmd_generate)

    index = commands.add_parser("index", help="index an XML file into a .mass store")
    index.add_argument("input", help="XML file")
    index.add_argument("-o", "--output", required=True, help="store file (.mass)")
    index.set_defaults(handler=_cmd_index)

    stats = commands.add_parser("stats", help="show store statistics")
    stats.add_argument("input", help="XML file or .mass store")
    stats.set_defaults(handler=_cmd_stats)

    query = commands.add_parser("query", help="run an XPath query")
    query.add_argument("input", help="XML file or .mass store")
    query.add_argument("xpath", help="XPath 1.0 expression")
    query.add_argument("--no-optimize", action="store_true",
                       help="run the default plan (VQP) instead of VQP-OPT")
    query.add_argument("--explain", action="store_true",
                       help="print the annotated plan and optimizer trace")
    query.add_argument("--xml", action="store_true",
                       help="print result subtrees as XML")
    query.add_argument("--limit", type=int, default=20,
                       help="max result labels to print (0 = all)")
    query.add_argument("--timeout", type=float, default=None, metavar="MS",
                       help="abort the query after this many milliseconds")
    query.add_argument("--max-pages", type=int, default=None, metavar="N",
                       help="abort after N logical page reads")
    query.add_argument("--max-results", type=int, default=None, metavar="N",
                       help="abort after N result tuples")
    query.set_defaults(handler=_cmd_query)

    check = commands.add_parser(
        "check",
        help="statically verify an XPath query (plan invariants + "
        "satisfiability) without executing it",
    )
    check.add_argument("xpath", help="XPath 1.0 expression")
    check.add_argument("--input", default=None,
                       help="XML file or .mass store to analyze against "
                       "(default: the XMark grammar)")
    check.add_argument("--no-optimize", action="store_true",
                       help="verify the default plan only (with --input)")
    check.set_defaults(handler=_cmd_check)

    fsck = commands.add_parser(
        "fsck", help="check a .mass store file (or every store in a "
        "shard directory) for corruption"
    )
    fsck.add_argument("store", help=".mass store file or shard directory")
    fsck.add_argument("--salvage", metavar="OUT", default=None,
                      help="write the recoverable record prefix to OUT")
    fsck.set_defaults(handler=_cmd_fsck)

    verify = commands.add_parser(
        "verify-rules",
        help="translation validation: check every rewrite rule for "
        "equivalence over a bounded document corpus and lint the "
        "estimator against provable cardinality intervals",
    )
    mode = verify.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true",
                      help="bounded corpus for CI (default; < 2 minutes)")
    mode.add_argument("--exhaustive", action="store_true",
                      help="widen the node budget and the random tier")
    verify.add_argument("--seed", type=int, default=7,
                        help="seed for the random document tier")
    verify.add_argument("--no-shrink", action="store_true",
                        help="report counterexamples without minimizing them")
    verify.add_argument("--fixtures", metavar="DIR", default=None,
                        help="write shrunk reproducers as JSON into DIR")
    verify.set_defaults(handler=_cmd_verify_rules)

    serve = commands.add_parser(
        "serve",
        help="run the concurrent query server (line-protocol TCP front end "
        "over the snapshot-isolated worker pool)",
    )
    serve.add_argument("input", help="XML file or .mass store")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = let the kernel pick; the bound "
                       "port is printed)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker threads (= max concurrent queries)")
    serve.add_argument("--queue-depth", type=int, default=None,
                       help="max requests waiting for a worker "
                       "(default: 2x workers); beyond it submits are "
                       "rejected with a retry-after hint")
    serve.add_argument("--timeout", type=float, default=None, metavar="MS",
                       help="per-request deadline in milliseconds "
                       "(includes queue wait)")
    serve.add_argument("--max-pages", type=int, default=None, metavar="N",
                       help="per-request logical page-read budget")
    serve.add_argument("--max-results", type=int, default=None, metavar="N",
                       help="per-request result cap")
    serve.add_argument("--shed-cost", type=int, default=None, metavar="COST",
                       help="under load, shed plans whose estimated cost "
                       "exceeds COST")
    serve.add_argument("--shed-policy", choices=("reject", "degrade"),
                       default="reject",
                       help="reject expensive plans outright, or run them "
                       "with a clamped page budget")
    serve.set_defaults(handler=_cmd_serve)

    bench_serving = commands.add_parser(
        "bench-serving",
        help="benchmark the concurrent query server and write "
        "BENCH_serving.json (exit 1 if the p99 criterion fails)",
    )
    bench_serving.add_argument("--quick", action="store_true",
                               help="tiny document and request counts — "
                               "finishes in seconds")
    bench_serving.add_argument("--clients", default=None,
                               help="comma-separated concurrency levels "
                               "(default 1,8,64)")
    bench_serving.add_argument("--size-mb", type=float, default=None,
                               help="nominal document size in MB")
    bench_serving.add_argument("--workers", type=int, default=None,
                               help="worker threads (default: bounded by cores)")
    bench_serving.add_argument("--seed", type=int, default=42)
    bench_serving.add_argument("-o", "--output", default="BENCH_serving.json")
    bench_serving.set_defaults(handler=_cmd_bench_serving)

    shard_build = commands.add_parser(
        "shard-build",
        help="partition documents into a shard directory (hash/round-robin "
        "by document, or one document by subtree key ranges)",
    )
    shard_build.add_argument("inputs", nargs="+",
                             help="XML files or .mass stores")
    shard_build.add_argument("-o", "--output", required=True,
                             help="shard directory to create")
    shard_build.add_argument("--shards", type=int, default=4)
    shard_build.add_argument("--scheme",
                             choices=("hash", "round_robin", "subtree"),
                             default="hash")
    shard_build.set_defaults(handler=_cmd_shard_build)

    shard_query = commands.add_parser(
        "shard-query",
        help="evaluate an XPath query scatter-gather over a shard "
        "directory (one worker process per shard)",
    )
    shard_query.add_argument("directory", help="shard directory")
    shard_query.add_argument("xpath", help="XPath 1.0 expression")
    shard_query.add_argument("--explain", action="store_true",
                             help="print the routing decision and each "
                             "contacted shard's plan")
    shard_query.add_argument("--limit", type=int, default=20,
                             help="max result labels to print (0 = all)")
    shard_query.add_argument("--timeout", type=float, default=None,
                             metavar="MS", help="per-shard deadline")
    shard_query.add_argument("--max-pages", type=int, default=None,
                             metavar="N", help="per-shard page budget")
    shard_query.add_argument("--max-results", type=int, default=None,
                             metavar="N", help="per-shard result cap")
    shard_query.set_defaults(handler=_cmd_shard_query)

    bench_shard = commands.add_parser(
        "bench-shard",
        help="benchmark scatter-gather over 1/2/4/8 shard workers and "
        "write BENCH_shard.json (exit 1 if the scaling criteria fail)",
    )
    bench_shard.add_argument("--quick", action="store_true",
                             help="tiny collection — finishes in seconds")
    bench_shard.add_argument("--workers", default=None,
                             help="comma-separated worker counts "
                             "(default 1,2,4,8)")
    bench_shard.add_argument("--seed", type=int, default=42)
    bench_shard.add_argument("-o", "--output", default="BENCH_shard.json")
    bench_shard.set_defaults(handler=_cmd_bench_shard)

    race = commands.add_parser(
        "race",
        help="run the seeded chaos swarm under the dynamic race detector "
        "(exit 1 on any detected race or chaos invariant failure)",
    )
    race.add_argument("--seed", type=int, default=0,
                      help="swarm seed — a failing run replays exactly")
    race.add_argument("--readers", type=int, default=None,
                      help="reader threads (default 64, or 8 with --quick)")
    race.add_argument("--writer-batches", type=int, default=None,
                      help="mutation batches the writer publishes")
    race.add_argument("--workers", type=int, default=None,
                      help="server worker threads")
    race.add_argument("--quick", action="store_true",
                      help="small swarm for CI — finishes in seconds")
    race.set_defaults(handler=_cmd_race)

    model_check = commands.add_parser(
        "model-check",
        help="exhaustively explore the shard-protocol and snapshot "
        "state machines, prove seeded mutants are killed, and replay "
        "instrumented chaos traces (exit 1 on any violation)",
    )
    mode = model_check.add_mutually_exclusive_group()
    mode.add_argument("--quick", action="store_true",
                      help="bounded 2-shard/2-request models (default; "
                      "finishes well under a minute)")
    mode.add_argument("--exhaustive", action="store_true",
                      help="arm every fault budget at once and harvest "
                      "more conformance traces")
    model_check.add_argument("--depth", type=int, default=None,
                             help="bound exploration depth (unbounded "
                             "by default; the models are finite)")
    model_check.add_argument("--no-conformance", action="store_true",
                             help="skip the chaos-trace replay layer "
                             "(pure in-process exploration only)")
    model_check.add_argument("-o", "--output", default=None,
                             help="also write the JSON report here")
    model_check.set_defaults(handler=_cmd_model_check)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
