"""Command-line interface: generate traces, run ad-hoc queries, explain.

Subcommands (also reachable as ``python -m repro.cli``):

* ``generate`` — synthesise a feed and persist it as a trace file::

      python -m repro.cli generate --feed research --seconds 60 \\
          --rate-scale 0.01 --out trace.bin

* ``query`` — run one GSQL query over a trace file and print the rows::

      python -m repro.cli query --trace trace.bin \\
          --sql "SELECT tb, sum(len) FROM TCP GROUP BY time/20 as tb"
      python -m repro.cli query examples/queries/subset_sum.gsql

  The query comes from a ``.gsql`` file (positional) or ``--sql``; with
  no ``--trace`` a default research-center feed is synthesised in
  memory.  The subset-sum / reservoir / heavy-hitters / distinct SFUN
  packs are pre-registered, so the paper's sampling queries work out of
  the box (``--relax-factor`` configures the subset-sum pack).
  Observability (docs/OBSERVABILITY.md): ``--metrics-out m.json`` dumps
  the metrics registry (``.prom``/``.txt`` renders Prometheus text),
  ``--trace-out t.jsonl`` records window/cleaning trace events, and
  ``--profile`` charges per-operator wall time into
  ``operator_seconds``.

* ``serve`` — run many standing queries over one feed concurrently
  (docs/SERVING.md)::

      python -m repro.cli serve examples/queries/*.gsql --report
      python -m repro.cli serve examples/queries/big_flows.gsql \\
          --listen 127.0.0.1:9090 --pace 0.001
      python -m repro.cli serve --journal serve.wal examples/queries/*.gsql
      python -m repro.cli serve --journal serve.wal --resume

  Every ``.gsql`` file becomes one standing query; queries whose
  compiled plans share a low-level prefix are served off one shared
  scan, with results byte-identical to a private run.
  ``--tenant-quota acme=5000`` caps a tenant's spend to that many
  cost-model cycles per offered record, shedding its batches at the
  serving edge once it exceeds the budget.  ``--listen HOST:PORT``
  exposes the HTTP control plane (``/metrics``, ``/queries``,
  ``/healthz``) while the feed drains; ``--journal``/``--resume`` make
  the standing-query set itself durable.

* ``explain`` — compile a query and print its plan without running it.

* ``lint`` — statically analyze queries without running them::

      python -m repro.cli lint examples/queries/subset_sum.gsql
      python -m repro.cli lint --sql "SELECT srcIP FROM TCP GROUP BY srcIP"
      python -m repro.cli lint --target shards=4,durable examples/queries/*.gsql
      python -m repro.cli lint --format sarif --output lint.sarif examples/queries/*.gsql

  Prints every diagnostic with source carets; exits 1 on errors (or, with
  ``--strict``, on any diagnostic).  ``--target shards=4,durable,...``
  additionally runs the SA3xx execution-safety rules, reporting at
  compile time every deployment the sharded/durable runtimes would
  refuse.  ``--format json|sarif`` emits a machine-readable report
  (SARIF 2.1.0 uploads straight to GitHub code scanning); ``--output``
  writes it to a file while the human summary stays on stderr.
  ``query`` also lints before running — against the deployment its own
  flags describe, so ``--shards 2`` on an unshardable query is SA301 /
  SA302 with carets and exit 1 — and prints warnings to stderr; disable
  with ``--no-lint`` or escalate with ``--strict``.
"""

from __future__ import annotations

import argparse
import sys
from itertools import chain
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.algorithms.bindings import standard_libraries
from repro.analysis.legality import ExecTarget, grammar_hint, parse_target
from repro.deploy import deploy
from repro.dsms.durability import DurableRunner
from repro.dsms.explain import explain
from repro.dsms.parser import compile_query
from repro.dsms.resilience import SupervisionPolicy
from repro.errors import ExecutionError, PlanningError, QueryError, ReproError, SourceError
from repro.obs import TraceSink, write_metrics, write_trace
from repro.streams.persistence import iter_trace, read_header, save_trace
from repro.streams.records import Record
from repro.streams.schema import TCP_SCHEMA, StreamSchema
from repro.streams.sources import (
    QuarantineStream,
    RetryPolicy,
    resilient_trace_source,
)
from repro.streams.traces import (
    TraceConfig,
    data_center_feed,
    ddos_feed,
    research_center_feed,
)

_FEEDS = {
    "research": research_center_feed,
    "datacenter": data_center_feed,
    "ddos": ddos_feed,
}


def _feed(
    trace: Optional[str], retries: Optional[int] = None, quarantine=None
) -> Tuple[StreamSchema, Iterable[Record]]:
    """The ``trace`` file's schema (its header) and its records, streamed
    from the file (through a source retrying ``retries`` times, if given);
    else the research feed `generate` makes by default, in memory."""
    if trace is None:
        config = TraceConfig(duration_seconds=60, rate_scale=0.01, seed=20050614)
        records = list(research_center_feed(config))
        print(
            f"-- no --trace: synthesised research feed ({len(records):,} records)",
            file=sys.stderr,
        )
        return TCP_SCHEMA, records
    with open(trace, "rb") as fh:
        schema, _ = read_header(fh)
    if retries is None:
        return schema, iter_trace(trace)
    return schema, resilient_trace_source(
        trace, RetryPolicy(max_retries=retries), quarantine=quarantine, name="cli"
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    config = TraceConfig(
        duration_seconds=args.seconds,
        rate_scale=args.rate_scale,
        seed=args.seed,
    )
    feed = _FEEDS[args.feed](config)
    count = save_trace(feed, args.out)
    print(f"wrote {count:,} records to {args.out}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    if args.file is None and args.sql is None:
        print("query needs a .gsql file or --sql", file=sys.stderr)
        return 2
    if args.file is not None and args.sql is not None:
        print("query takes a .gsql file or --sql, not both", file=sys.stderr)
        return 2
    if args.file is not None:
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                sql = fh.read()
        except OSError as exc:
            print(f"cannot read {args.file}: {exc}", file=sys.stderr)
            return 2
    else:
        sql = args.sql

    try:
        # The deployment these flags describe: built from it, linted against it.
        target = ExecTarget(
            shards=args.shards if args.shards > 0 else None,
            supervise=args.supervise,
            durable=args.journal is not None,
            shed_threshold=args.shed_threshold,
        )
    except ValueError as exc:
        print(f"bad deployment flags: {exc}", file=sys.stderr)
        return 2

    # The hardened ingest edge (docs/RESILIENCE.md): a dead-letter
    # quarantine plus admission validation whenever the caller asked for
    # any of its knobs.
    harden = args.quarantine_out is not None or args.source_retries is not None
    quarantine = QuarantineStream() if harden else None

    # The records stream from the file into the run: one pass, whichever
    # path below takes them (a resume skips what the journal committed).
    try:
        schema, source = _feed(args.trace, args.source_retries, quarantine)
        records = iter(source)
        first = next(records, None)
    except SourceError as exc:
        print(f"cannot read {args.trace}: {exc}", file=sys.stderr)
        return 1
    if first is None:
        print("trace is empty", file=sys.stderr)
        return 1
    records = chain([first], records)

    trace_sink = TraceSink() if args.trace_out else None
    gs = deploy(
        target,
        # The trace's own schema, when it is not the stock TCP one.
        schema=schema,
        libraries=standard_libraries(args.relax_factor),
        supervision=SupervisionPolicy(max_restarts=args.max_restarts),
        trace=trace_sink,
        profile=args.profile,
        quarantine=quarantine,
        validate_admission=harden,
        vectorize=args.vectorize,
    )
    if args.lint:
        from repro.analysis.linter import lint_query

        result = lint_query(sql, gs.registries, filename="cli", target=target)
        if result.diagnostics:
            print(result.render(), file=sys.stderr)
        if result.errors or (args.strict and result.diagnostics):
            return 1
    try:
        handle = gs.add_query(sql, name="cli")
    except PlanningError as exc:
        print(f"cannot run this query under --shards: {exc}", file=sys.stderr)
        return 2
    try:
        if args.journal is None:
            gs.run(records)
        elif args.resume:
            consumed = DurableRunner(gs, args.journal).resume(records)
            print(f"-- resumed from {args.journal}; {consumed:,} records total", file=sys.stderr)
        else:
            consumed = DurableRunner(gs, args.journal).run(records)
            print(f"-- journalled {consumed:,} records to {args.journal}", file=sys.stderr)
    except SourceError as exc:
        print(f"cannot read {args.trace}: {exc}", file=sys.stderr)
        return 1
    except ReproError as exc:
        if args.journal is None:
            raise
        print(f"cannot journal this run: {exc}", file=sys.stderr)
        return 2
    rows = handle.results
    _print_rows(handle.output_schema.names, rows, args.limit)
    print(f"-- {len(rows)} rows", file=sys.stderr)
    _print_run_report(gs, force=args.report)
    if args.metrics_out:
        count = write_metrics(gs.metrics, args.metrics_out)
        print(f"-- wrote {count} metric series to {args.metrics_out}", file=sys.stderr)
    if args.trace_out:
        count = write_trace(trace_sink, args.trace_out)
        print(f"-- wrote {count} trace events to {args.trace_out}", file=sys.stderr)
    if args.quarantine_out:
        count = quarantine.write_jsonl(args.quarantine_out)
        print(
            f"-- wrote {count} quarantined record(s) to {args.quarantine_out}"
            f" ({quarantine.total} total, {quarantine.evicted} evicted)",
            file=sys.stderr,
        )
    return 0


def _print_rows(names: Sequence[str], rows: list, limit: int) -> None:
    """A tab-separated header, the first ``limit`` rows, and how many more."""
    print("\t".join(names))
    for row in rows[:limit]:
        print("\t".join(str(value) for value in row.values))
    if limit < len(rows):
        print(f"... ({len(rows) - limit} more rows)")


def _print_run_report(gs, force: bool = False) -> None:
    """Degradation counters to stderr: drops, backlog, shed, late tuples.

    Printed only when something was actually dropped/shed (the healthy
    path stays quiet), or always with ``--report``.
    """
    report = gs.run_report()
    for stream, counters in sorted(report["streams"].items()):
        if force or any(counters.values()):
            print(
                f"-- stream {stream}: drops={counters['drops']}"
                f" backlog={counters['backlog']} shed={counters['shed']}"
                f" quarantined={counters['quarantined']}",
                file=sys.stderr,
            )
    for name, counters in sorted(report["queries"].items()):
        if force or any(counters.values()):
            rendered = " ".join(f"{key}={value}" for key, value in sorted(counters.items()))
            print(f"-- query {name}: {rendered}", file=sys.stderr)
    for name, reason in sorted(
        report.get("vectorize", {}).get("fallbacks", {}).items()
    ):
        print(
            f"-- vectorize fallback {name}: {reason}",
            file=sys.stderr,
        )
    supervision = getattr(gs, "last_supervision", None)
    if supervision is not None and (force or supervision.total_restarts):
        print(
            f"-- supervision: restarts={supervision.total_restarts}"
            f" checkpoints={sum(supervision.checkpoints.values())}"
            f" replayed_batches={sum(supervision.replayed_batches.values())}",
            file=sys.stderr,
        )
        for failure in supervision.failures:
            print(f"--   {failure}", file=sys.stderr)


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.linter import lint_query
    from repro.analysis.sarif import render_report

    if not args.files and args.sql is None:
        print("lint needs one or more query files or --sql", file=sys.stderr)
        return 2
    if args.files and args.sql is not None:
        print("lint takes query files or --sql, not both", file=sys.stderr)
        return 2
    target = None
    if args.target is not None:
        try:
            target = parse_target(args.target)
        except ValueError as exc:
            print(f"bad --target: {exc}", file=sys.stderr)
            return 2

    sources: List[tuple] = []
    if args.sql is not None:
        sources.append(("<sql>", args.sql))
    for path in args.files:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                sources.append((path, fh.read()))
        except OSError as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            return 2

    registries = deploy(libraries=standard_libraries(args.relax_factor)).registries
    results = [
        lint_query(text, registries, filename=filename, target=target)
        for filename, text in sources
    ]

    if args.format == "text":
        for result in results:
            if result.diagnostics:
                print(result.render())
            else:
                print(f"{result.filename}: ok")
    else:
        report = render_report(results, args.format)
        if args.output is not None:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(report + "\n")
            print(f"-- wrote {args.format} report to {args.output}", file=sys.stderr)
        else:
            print(report)

    errors = sum(len(r.errors) for r in results)
    warnings = sum(len(r.warnings) for r in results)
    if errors or warnings:
        print(f"-- {errors} error(s), {warnings} warning(s)", file=sys.stderr)
    if errors or (args.strict and any(r.diagnostics for r in results)):
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    try:
        return _serve(args)
    except ReproError as exc:
        # A refused --resume, a bad --batch-size/--commit-interval, an
        # unreadable trace: one line, not a traceback.
        print(f"cannot serve: {exc}", file=sys.stderr)
        return 2


def _serve(args: argparse.Namespace) -> int:
    import asyncio
    import os

    from repro.dsms.durability import ResultJournal
    from repro.serving.faults import BreakerConfig
    from repro.serving.server import (
        DRAIN_EXIT_CODE,
        HttpLimits,
        QueryServer,
        drive,
        resume_serving,
    )

    if not args.files and not args.resume:
        print("serve needs one or more .gsql files (or --resume)", file=sys.stderr)
        return 2

    quotas = {}
    for raw in args.tenant_quota or ():
        tenant, sep, value = raw.partition("=")
        if not sep or not tenant:
            print(
                f"bad --tenant-quota {raw!r}: expected tenant=CYCLES",
                file=sys.stderr,
            )
            return 2
        try:
            quotas[tenant.strip()] = float(value)
        except ValueError:
            print(
                f"bad --tenant-quota {raw!r}: CYCLES must be a number",
                file=sys.stderr,
            )
            return 2

    _, records = _feed(args.trace)
    try:
        breaker = BreakerConfig(
            failure_threshold=args.breaker_failures,
            cooldown_batches=args.breaker_cooldown,
        )
    except ValueError as exc:
        print(f"bad breaker configuration: {exc}", file=sys.stderr)
        return 2

    engine = deploy(
        ExecTarget(serve=True, durable=args.journal is not None),
        libraries=standard_libraries(args.relax_factor),
        profile=args.profile,
        quotas=quotas,
        breaker=breaker,
        journal=ResultJournal(args.journal, fresh=True)
        if args.journal and not args.resume
        else None,
    )
    drained = False
    if args.resume:
        resume_serving(
            engine,
            args.journal,
            records,
            batch_size=args.batch_size,
            commit_interval=args.commit_interval,
        )
        print(
            f"-- resumed {len(engine.queries())} standing quer(y/ies) from"
            f" {args.journal}; {engine.consumed:,} records total",
            file=sys.stderr,
        )
    else:
        for path in args.files:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except OSError as exc:
                print(f"cannot read {path}: {exc}", file=sys.stderr)
                return 2
            name = os.path.splitext(os.path.basename(path))[0]
            try:
                sq = engine.register(text, name=name, tenant=args.tenant)
            except (PlanningError, ExecutionError) as exc:
                print(f"cannot serve {path}: {exc}", file=sys.stderr)
                return 2
            shared = "shared" if sq.signature is not None else "private feed"
            print(f"-- registered {sq.qid} ({name}): {shared}", file=sys.stderr)

        if args.listen is not None:
            host, _, port_text = args.listen.partition(":")
            try:
                port = int(port_text) if port_text else 0
            except ValueError:
                print(f"bad --listen {args.listen!r}: expected HOST:PORT", file=sys.stderr)
                return 2
            server = QueryServer(
                engine,
                batch_size=args.batch_size,
                commit_interval=args.commit_interval,
                pace=args.pace,
                limits=HttpLimits(
                    read_timeout=args.http_timeout,
                    write_timeout=args.http_timeout,
                    max_connections=args.http_max_connections,
                ),
            )

            async def _listen() -> None:
                # Only when this (main) thread owns a running loop; a
                # host embedding the server elsewhere handles signals
                # itself (install_signal_handlers returns False there).
                if server.install_signal_handlers():
                    print(
                        "-- SIGTERM/SIGINT drain gracefully"
                        f" (exit code {DRAIN_EXIT_CODE})",
                        file=sys.stderr,
                    )
                bound_host, bound_port = await server.start_http(
                    host or "127.0.0.1", port
                )
                print(
                    f"-- serving http://{bound_host}:{bound_port}"
                    " (/metrics /queries /healthz /readyz /drain)",
                    file=sys.stderr,
                )
                try:
                    await server.ingest(records, close=True)
                    if server.drained:
                        print(
                            f"-- drained after {engine.consumed:,} records;"
                            " final state committed",
                            file=sys.stderr,
                        )
                    elif args.linger > 0:
                        print(
                            f"-- feed drained; lingering {args.linger}s",
                            file=sys.stderr,
                        )
                        await server.linger(args.linger)
                finally:
                    await server.stop_http()

            asyncio.run(_listen())
            drained = server.drained
        else:
            drive(
                engine,
                records,
                batch_size=args.batch_size,
                commit_interval=args.commit_interval,
            )

    for sq in engine.queries():
        rows = sq.results
        status = "active" if sq.active else f"retired@{sq.unregistered_at}"
        if sq.quarantined:
            status += f", breaker {sq.breaker.state}"
        print(
            f"-- {sq.qid} ({sq.name}, tenant={sq.tenant}, {status}):"
            f" {len(rows)} rows",
            file=sys.stderr,
        )
        if args.limit:
            _print_rows(sq.instance.query(sq.name).output_schema.names, rows, args.limit)
    if args.report:
        import json

        print(json.dumps(engine.report(), indent=2))
    if args.metrics_out:
        count = write_metrics(engine.export_metrics(), args.metrics_out)
        print(
            f"-- wrote {count} metric series to {args.metrics_out}",
            file=sys.stderr,
        )
    if args.dead_letters_out:
        count = engine.dead_letters.write_jsonl(args.dead_letters_out)
        print(
            f"-- wrote {count} dead-letter entries to"
            f" {args.dead_letters_out}"
            f" ({engine.dead_letters.evicted} older entries evicted)",
            file=sys.stderr,
        )
    return DRAIN_EXIT_CODE if drained else 0


def _cmd_explain(args: argparse.Namespace) -> int:
    gs = deploy(libraries=standard_libraries(args.relax_factor))
    plan = compile_query(args.sql, gs.registries, query_name="cli")
    print(explain(plan))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Stream-sampling-operator reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # The flags of the two commands that run a deployment over a feed.
    runs = argparse.ArgumentParser(add_help=False)
    runs.add_argument(
        "--trace",
        default=None,
        help="trace file to run over (default: synthesise a research feed)",
    )
    runs.add_argument("--relax-factor", type=float, default=10.0)
    runs.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="journal committed state (query: closed windows; serve:"
        " registrations and commits) to this write-ahead file so a killed"
        " run can be resumed with --resume (query: serial or --shards runs,"
        " with or without --supervise)",
    )
    runs.add_argument(
        "--resume",
        action="store_true",
        help="with --journal, restore the committed state from the journal"
        " and continue instead of starting over; output is byte-identical"
        " to an uninterrupted run",
    )
    runs.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the metrics registry after the run (serve: per query and"
        " tenant; .prom/.txt = Prometheus text format, anything else = JSON)",
    )
    runs.add_argument(
        "--profile",
        action="store_true",
        help="charge per-operator wall time into the operator_seconds"
        " histogram (per shard under --shards; per served query, a"
        " follower's shared prefix as phase replay)",
    )
    runs.add_argument(
        "--report",
        action="store_true",
        help="query: always print the degradation/supervision report to"
        " stderr (default: only when something was dropped or shed); serve:"
        " print the serving report (queries, sharing groups, tenant ledgers)"
        " as JSON",
    )

    generate = sub.add_parser("generate", help="synthesise and persist a trace")
    generate.add_argument("--feed", choices=sorted(_FEEDS), default="research")
    generate.add_argument("--seconds", type=int, default=60)
    generate.add_argument("--rate-scale", type=float, default=0.01)
    generate.add_argument("--seed", type=int, default=20050614)
    generate.add_argument("--out", required=True)
    generate.set_defaults(fn=_cmd_generate)

    query = sub.add_parser("query", parents=[runs], help="run one GSQL query over a trace")
    query.add_argument(
        "file", nargs="?", help="path to a .gsql query file (or use --sql)"
    )
    query.add_argument("--sql", help="query text instead of a .gsql file")
    query.add_argument("--limit", type=int, default=20)
    query.add_argument(
        "--no-lint",
        dest="lint",
        action="store_false",
        help="skip the pre-execution static analysis",
    )
    query.add_argument(
        "--strict",
        action="store_true",
        help="refuse to run if the linter reports anything",
    )
    query.add_argument(
        "--shards",
        type=int,
        default=0,
        help="run the query hash-partitioned across N shards (0 ="
        " serial): state partitioning and, with --supervise, fault"
        " isolation; slower than serial, not a speed-up",
    )
    query.add_argument(
        "--vectorize",
        action="store_true",
        help="execute eligible operators on the columnar batch engine"
        " (byte-identical results; plans needing per-tuple state fall"
        " back automatically)",
    )
    query.add_argument(
        "--supervise",
        action="store_true",
        help="with --shards, fork one worker process per shard (instead"
        " of interleaving the shards in this process) under crash"
        " supervision: dead/stalled workers restart and recover from"
        " checkpoints plus batch replay (for fault isolation; it pickles"
        " every batch, so it runs well below serial speed)",
    )
    query.add_argument(
        "--max-restarts",
        type=int,
        default=2,
        help="with --supervise, restarts allowed per shard before the run"
        " fails (default 2)",
    )
    query.add_argument(
        "--shed-threshold",
        type=int,
        default=None,
        help="admit at most this many records of a stream per second of"
        " stream time and shed the rest, whatever the batch size or shard"
        " count; shed counts appear in the run report",
    )
    query.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="record window/cleaning trace events and write them as JSONL",
    )
    query.add_argument(
        "--quarantine-out",
        default=None,
        metavar="PATH",
        help="validate records at admission, divert malformed ones to a"
        " dead-letter quarantine instead of failing the query, and write"
        " the quarantined records to PATH as JSONL",
    )
    query.add_argument(
        "--source-retries",
        type=int,
        default=None,
        metavar="N",
        help="read --trace through a fault-tolerant source that survives"
        " torn trace tails and retries transient read failures up to N"
        " times with capped exponential backoff",
    )
    query.set_defaults(fn=_cmd_query)

    lint_cmd = sub.add_parser(
        "lint", help="statically analyze queries without running them"
    )
    lint_cmd.add_argument(
        "files", nargs="*", help="paths to .gsql query files (one result each)"
    )
    lint_cmd.add_argument("--sql", help="lint this query text instead of files")
    lint_cmd.add_argument(
        "--strict", action="store_true", help="exit 1 on warnings too"
    )
    lint_cmd.add_argument("--relax-factor", type=float, default=10.0)
    lint_cmd.add_argument(
        "--target",
        default=None,
        metavar="SPEC",
        help="deployment configuration for the SA3xx execution-safety"
        " and SA4xx serving rules, e.g. 'shards=4,durable,supervise'"
        f" (items: {grammar_hint()})",
    )
    lint_cmd.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="diagnostic output format (default: text with source carets)",
    )
    lint_cmd.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="with --format json|sarif, write the report to PATH instead"
        " of stdout",
    )
    lint_cmd.set_defaults(fn=_cmd_lint)

    serve = sub.add_parser(
        "serve",
        parents=[runs],
        help="serve many standing queries over one feed",
        epilog="exit codes: 0 = feed served to completion; 2 = bad"
        " arguments or rejected query; 3 = terminated early by a"
        " graceful drain (SIGTERM, SIGINT, or POST /drain) — standing"
        " state was flushed and, with --journal, committed, so"
        " --resume reads no further input",
    )
    serve.add_argument(
        "files", nargs="*", help="paths to .gsql files, one standing query each"
    )
    serve.add_argument(
        "--tenant",
        default="default",
        help="tenant to register the queries under (default: 'default')",
    )
    serve.add_argument(
        "--tenant-quota",
        action="append",
        metavar="TENANT=CYCLES",
        help="cap TENANT's spend to CYCLES cost-model cycles per offered"
        " record; its batches are shed at the serving edge beyond that"
        " (repeatable)",
    )
    serve.add_argument(
        "--listen",
        default=None,
        metavar="HOST:PORT",
        help="expose the HTTP control plane (/metrics /queries /healthz)"
        " while the feed drains; PORT 0 picks a free port",
    )
    serve.add_argument(
        "--pace",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="with --listen, sleep this long between batches so the"
        " endpoint can be inspected mid-stream (default 0)",
    )
    serve.add_argument(
        "--linger",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="with --listen, keep the endpoint up this long after the"
        " feed drains (default 0)",
    )
    serve.add_argument(
        "--http-timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="with --listen, per-connection read and write deadline;"
        " slow or stalled clients are dropped past it (default 5)",
    )
    serve.add_argument(
        "--http-max-connections",
        type=int,
        default=64,
        metavar="N",
        help="with --listen, concurrent-connection cap; beyond it new"
        " connections are shed with 503 (default 64)",
    )
    serve.add_argument(
        "--breaker-failures",
        type=int,
        default=3,
        metavar="N",
        help="consecutive batch failures that open a standing query's"
        " circuit breaker and quarantine it (default 3)",
    )
    serve.add_argument(
        "--breaker-cooldown",
        type=int,
        default=8,
        metavar="BATCHES",
        help="batches a quarantined query skips before one half-open"
        " probe batch is admitted (default 8)",
    )
    serve.add_argument(
        "--dead-letters-out",
        default=None,
        metavar="PATH",
        help="write the dead-letter log (batches that raised inside a"
        " query's fault boundary) to PATH as JSONL after the serve",
    )
    serve.add_argument("--batch-size", type=int, default=512)
    serve.add_argument(
        "--commit-interval",
        type=int,
        default=4,
        metavar="BATCHES",
        help="with --journal, commit a durable snapshot every N batches"
        " (default 4)",
    )
    serve.add_argument(
        "--limit",
        type=int,
        default=0,
        metavar="N",
        help="print up to N result rows per query (default: counts only)",
    )
    serve.set_defaults(fn=_cmd_serve)

    explain_cmd = sub.add_parser("explain", help="compile and explain a query")
    explain_cmd.add_argument("--sql", required=True)
    explain_cmd.add_argument("--relax-factor", type=float, default=10.0)
    explain_cmd.set_defaults(fn=_cmd_explain)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        message = "unrecognized arguments: " + " ".join(unknown)
        if any(arg.startswith("--shard-") for arg in unknown):
            # The unsupervised worker-per-shard flag is gone.
            message += " (shards fork workers under --supervise)"
        parser.error(message)  # exits 2
    if getattr(args, "resume", False) and not args.journal:
        print("--resume needs --journal <path>", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except QueryError as exc:
        # lexer, parser, analyzer, planner: the caller's error in every command
        print(f"invalid query: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
