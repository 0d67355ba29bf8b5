"""Command-line interface.

Usage examples::

    python -m repro query "select r_name from region"
    python -m repro query --compare --sf 0.01 "$(cat batch.sql)"
    python -m repro explain "select ... ; select ..."
    python -m repro bench table1
    python -m repro bench maintenance

The ``query`` command optimizes and executes a (batch of) SQL statement(s)
against a synthetic TPC-H database; ``explain`` prints the chosen plan;
``bench`` reproduces one of the paper's experiments.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from .api import Session
from .errors import ReproError
from .optimizer.options import OptimizerOptions

_BENCH_CHOICES = (
    "table1", "table2", "table3", "table4", "fig8", "maintenance", "all",
)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for the repro CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Similar-subexpression query processing (SIGMOD 2007 "
            "reproduction) over a synthetic TPC-H database."
        ),
    )
    parser.add_argument(
        "--sf", type=float, default=0.01,
        help="TPC-H scale factor (default 0.01)",
    )
    parser.add_argument(
        "--seed", type=int, default=20070612, help="data generator seed"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    query = sub.add_parser("query", help="optimize and execute SQL")
    query.add_argument("sql", help="SQL text (use ; to separate a batch)")
    query.add_argument("--no-cse", action="store_true")
    query.add_argument("--no-heuristics", action="store_true")
    query.add_argument(
        "--no-history-reuse", action="store_true",
        help=(
            "disable §5.4 optimization-history reuse: every Step-3 pass "
            "re-optimizes all memo groups from scratch (plans are "
            "identical; only optimization time differs)"
        ),
    )
    query.add_argument(
        "--compare", action="store_true",
        help="run no-CSE / CSE / no-heuristics side by side",
    )
    query.add_argument(
        "--rows", type=int, default=10, help="rows to print per query"
    )
    query.add_argument(
        "--parallel", type=int, metavar="N", default=None,
        help=(
            "execute the batch on N worker threads (dependency-aware "
            "scheduling over the shared-spool DAG)"
        ),
    )
    query.add_argument(
        "--metrics", action="store_true",
        help="print the metrics-registry snapshot after execution",
    )
    query.add_argument(
        "--trace", metavar="FILE",
        help="write optimizer trace events (JSON lines) to FILE",
    )
    query.add_argument(
        "--query-log", metavar="FILE",
        help="append one structured JSONL record per executed batch to FILE",
    )
    query.add_argument(
        "--slow-ms", type=float, metavar="MS", default=None,
        help=(
            "queries slower than MS milliseconds are flagged slow in the "
            "query log and carry their full EXPLAIN ANALYZE tree"
        ),
    )
    query.add_argument(
        "--deadline-ms", type=float, metavar="MS", default=None,
        help=(
            "abort the batch with a timeout if optimize+execute exceeds "
            "MS milliseconds (checked cooperatively per operator)"
        ),
    )
    query.add_argument(
        "--optimizer-deadline-ms", type=float, metavar="MS", default=None,
        help=(
            "bound just the optimizer: on expiry the batch is re-planned "
            "without CSE sharing (the always-valid baseline) and executed"
        ),
    )
    query.add_argument(
        "--max-spool-rows", type=int, metavar="N", default=None,
        help=(
            "cap total rows materialized into shared spools; exceeding it "
            "re-executes the batch serially without sharing"
        ),
    )
    query.add_argument(
        "--no-fused", action="store_true",
        help=(
            "disable operator fusion: scan->filter->project chains run "
            "as separate materializing operators instead of one "
            "morsel-streamed pipeline"
        ),
    )
    query.add_argument(
        "--morsel-rows", type=int, metavar="N", default=4096,
        help=(
            "rows per morsel streamed through fused pipelines "
            "(default 4096; 0 = whole frame in one morsel)"
        ),
    )
    query.add_argument(
        "--share-window-ms", type=float, metavar="MS", default=0.0,
        help=(
            "hold arriving queries up to MS milliseconds to merge them "
            "with compatible concurrent queries into one shared "
            "optimization (cross-session micro-batching; 0 = off)"
        ),
    )
    query.add_argument(
        "--cse-strategy", choices=("paper", "greedy", "auto"), default=None,
        help=(
            "Step-3 selection strategy: the paper's subset enumeration, "
            "the greedy benefit-ordered AND-OR DAG heuristic "
            "(cs/9910021), or auto (greedy above the candidate-count "
            "threshold)"
        ),
    )

    explain = sub.add_parser("explain", help="print the optimized plan")
    explain.add_argument("sql")
    explain.add_argument("--no-cse", action="store_true")
    explain.add_argument("--no-heuristics", action="store_true")
    explain.add_argument(
        "--no-history-reuse", action="store_true",
        help="disable §5.4 optimization-history reuse (see `query`)",
    )
    explain.add_argument(
        "--costs", action="store_true",
        help="annotate every operator with estimated costs",
    )
    explain.add_argument(
        "--analyze", action="store_true",
        help=(
            "execute the plan and annotate operators with actual rows and "
            "time, spool cost attribution, and optimizer counters"
        ),
    )
    explain.add_argument(
        "--no-fused", action="store_true",
        help="disable operator fusion (see `query --no-fused`)",
    )
    explain.add_argument(
        "--why", action="store_true",
        help=(
            "print the optimizer decision journal: every candidate CSE's "
            "lifecycle (signature bucket, H1-H4 verdicts with the numbers "
            "used, LCA placement, keep/reject reason), and which Step-3 "
            "strategy ran and why"
        ),
    )
    explain.add_argument(
        "--cse-strategy", choices=("paper", "greedy", "auto"), default=None,
        help="Step-3 selection strategy (see `query --cse-strategy`)",
    )

    bench = sub.add_parser(
        "bench", help="reproduce one of the paper's experiments"
    )
    bench.add_argument("experiment", choices=_BENCH_CHOICES)

    trace = sub.add_parser(
        "trace",
        help=(
            "analyze a JSONL trace file (critical path, per-task slack, "
            "operator attribution) or export it for chrome://tracing; "
            "`repro trace export FILE --format chrome` also works"
        ),
    )
    trace.add_argument(
        "file",
        help="trace file written by `query --trace` / Tracer(path=…)",
    )
    trace.add_argument(
        "--critical-path", action="store_true",
        help=(
            "report the batch's critical path and per-task slack over the "
            "observed spool producer/consumer DAG"
        ),
    )
    trace.add_argument(
        "--summary", action="store_true",
        help="report trace volume, spool flows, and span self-time",
    )
    trace.add_argument(
        "--export", choices=("chrome",), default=None, metavar="FORMAT",
        help="export instead of analyzing (chrome = trace-event JSON)",
    )
    trace.add_argument(
        "--out", metavar="FILE", default=None,
        help="write the export to FILE instead of stdout",
    )

    serve = sub.add_parser(
        "serve-metrics",
        help=(
            "execute a batch repeatedly and expose /metrics (Prometheus "
            "text format) and /healthz over HTTP"
        ),
    )
    serve.add_argument("sql", help="SQL batch to serve")
    serve.add_argument(
        "--port", type=int, default=9464,
        help="HTTP port for /metrics and /healthz (0 = ephemeral)",
    )
    serve.add_argument(
        "--iterations", type=int, default=1, metavar="N",
        help=(
            "execute the batch N times before serving (warms the plan "
            "cache and populates histograms); 0 serves an empty registry"
        ),
    )
    serve.add_argument(
        "--duration", type=float, default=None, metavar="SECONDS",
        help="serve for SECONDS then exit (default: until interrupted)",
    )
    return parser


def _options(args: argparse.Namespace) -> OptimizerOptions:
    if getattr(args, "no_cse", False):
        options = OptimizerOptions(enable_cse=False)
    elif getattr(args, "no_heuristics", False):
        options = OptimizerOptions(
            enable_heuristics=False, max_cse_optimizations=16
        )
    else:
        options = OptimizerOptions()
    if getattr(args, "no_history_reuse", False):
        options = dataclasses.replace(options, reuse_history=False)
    if getattr(args, "no_fused", False):
        options = dataclasses.replace(options, enable_fusion=False)
    if getattr(args, "cse_strategy", None):
        options = dataclasses.replace(
            options, cse_strategy=args.cse_strategy
        )
    return options


def _cmd_query(args: argparse.Namespace, out) -> int:
    database = Session.tpch(scale_factor=args.sf, seed=args.seed).database
    if args.compare:
        from .bench.harness import format_table, run_scenario

        results = run_scenario(database, args.sql)
        print(format_table("comparison", results), file=out)
        return 0
    registry = tracer = query_log = None
    if args.metrics or args.trace:
        from .obs import MetricsRegistry, Tracer

        registry = MetricsRegistry() if args.metrics else None
        tracer = Tracer() if args.trace else None
    if args.query_log:
        from .obs import QueryLog

        query_log = QueryLog(path=args.query_log, slow_ms=args.slow_ms)
    coordinator = None
    if args.share_window_ms > 0:
        from .serve import SharedBatchCoordinator

        coordinator = SharedBatchCoordinator(window_ms=args.share_window_ms)
    workers = args.parallel if args.parallel and args.parallel > 1 else 1
    session = Session(
        database,
        _options(args),
        registry=registry,
        tracer=tracer,
        workers=workers,
        query_log=query_log,
        morsel_rows=args.morsel_rows,
        coordinator=coordinator,
    )
    budget = None
    if (
        args.deadline_ms is not None
        or args.optimizer_deadline_ms is not None
        or args.max_spool_rows is not None
    ):
        from .serve import QueryBudget

        budget = QueryBudget(
            deadline_ms=args.deadline_ms,
            optimizer_deadline_ms=args.optimizer_deadline_ms,
            max_spool_rows=args.max_spool_rows,
        )
    outcome = session.execute(args.sql, budget=budget)
    stats = outcome.optimization.stats
    print(
        f"-- estimated cost {stats.est_cost_no_cse:.1f} -> "
        f"{stats.est_cost_final:.1f}; CSEs used: {stats.used_cses or 'none'}",
        file=out,
    )
    if outcome.degraded:
        print(
            f"-- governor fallback: {outcome.fallback_reason} "
            "(executed the no-sharing baseline plan)",
            file=out,
        )
    for result in outcome.execution.results:
        print(f"\n{result.name} ({result.row_count} rows):", file=out)
        print("  " + " | ".join(result.columns), file=out)
        for row in result.rows[: args.rows]:
            print("  " + " | ".join(str(v) for v in row), file=out)
        if result.row_count > args.rows:
            print(f"  ... {result.row_count - args.rows} more", file=out)
    metrics = outcome.execution.metrics
    print(
        f"\n-- execution: {metrics.cost_units:.1f} cost units, "
        f"{metrics.rows_scanned} rows scanned, "
        f"{metrics.spools_materialized} spool(s)",
        file=out,
    )
    if registry is not None:
        print("\n-- metrics:", file=out)
        snapshot = registry.snapshot()
        for name in sorted(snapshot["counters"]):
            print(f"  {name} = {snapshot['counters'][name]:g}", file=out)
        for name in sorted(snapshot["timers"]):
            timer = snapshot["timers"][name]
            print(
                f"  {name} = {timer['total']:.4f}s over "
                f"{timer['count']} span(s)",
                file=out,
            )
    if tracer is not None:
        count = tracer.write(args.trace)
        print(f"\n-- wrote {count} trace event(s) to {args.trace}", file=out)
    if query_log is not None:
        slow = len(query_log.slow_queries())
        print(
            f"\n-- query log: {len(query_log)} record(s) "
            f"({slow} slow) appended to {args.query_log}",
            file=out,
        )
    return 0


def _cmd_explain(args: argparse.Namespace, out) -> int:
    session = Session.tpch(scale_factor=args.sf, seed=args.seed)
    session.options = _options(args)
    print(
        session.explain(
            args.sql, costs=args.costs, analyze=args.analyze, why=args.why
        ),
        file=out,
    )
    return 0


def _cmd_serve_metrics(args: argparse.Namespace, out) -> int:
    import time

    from .obs import MetricsRegistry, TelemetryServer

    registry = MetricsRegistry()
    session = Session.tpch(
        scale_factor=args.sf, seed=args.seed, registry=registry
    )
    for _ in range(max(0, args.iterations)):
        session.execute(args.sql)
    server = TelemetryServer(registry, port=args.port).start()
    print(
        f"serving {server.url}/metrics and {server.url}/healthz "
        f"(after {args.iterations} execution(s))",
        file=out,
    )
    try:
        if args.duration is not None:
            time.sleep(max(0.0, args.duration))
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    print("telemetry server stopped", file=out)
    return 0


def _cmd_bench(args: argparse.Namespace, out) -> int:
    from .bench.harness import format_table, run_scenario
    from .workloads import (
        complex_join_batch,
        example1_batch,
        example1_with_q4,
        nested_query,
        scaleup_batch,
    )

    database = Session.tpch(scale_factor=args.sf, seed=args.seed).database
    if args.experiment == "all":
        from .bench.report import generate_report

        print(generate_report(database, args.sf), file=out)
        return 0
    if args.experiment == "table1":
        print(format_table(
            "Table 1: query batch (Q1, Q2, Q3)",
            run_scenario(database, example1_batch()),
        ), file=out)
    elif args.experiment == "table2":
        print(format_table(
            "Table 2: query batch (Q1..Q4)",
            run_scenario(database, example1_with_q4()),
        ), file=out)
    elif args.experiment == "table3":
        print(format_table(
            "Table 3: nested query",
            run_scenario(database, nested_query()),
        ), file=out)
    elif args.experiment == "table4":
        print(format_table(
            "Table 4: complex joins",
            run_scenario(database, complex_join_batch()),
        ), file=out)
    elif args.experiment == "fig8":
        from .bench.harness import MODE_CSE, MODE_NO_CSE, options_for

        print("n | est cost no CSE | est cost CSE | opt time", file=out)
        for n in range(2, 11, 2):
            sql = scaleup_batch(n)
            no = Session(database, options_for(MODE_NO_CSE)).optimize(sql)
            yes = Session(database, options_for(MODE_CSE)).optimize(sql)
            print(
                f"{n} | {no.est_cost:15.1f} | {yes.est_cost:12.1f} | "
                f"{yes.stats.optimization_time:.3f}s",
                file=out,
            )
    elif args.experiment == "maintenance":
        import numpy as np

        from .views.maintenance import MaintenancePlanner
        from .workloads.example1 import example1_views

        def setup(options):
            db = Session.tpch(scale_factor=args.sf, seed=args.seed).database
            return MaintenancePlanner(db, example1_views(db), options)

        rng = np.random.default_rng(7)
        rows = [
            (
                80_000_000 + i,
                f"Customer#{80_000_000 + i}",
                int(rng.integers(0, 25)),
                "BUILDING",
                100.0,
            )
            for i in range(100)
        ]
        with_cse = setup(OptimizerOptions()).apply_insert("customer", rows)
        without = setup(OptimizerOptions(enable_cse=False)).apply_insert(
            "customer", rows
        )
        print(
            f"maintenance cost: {without.measured_cost:.1f} without CSEs, "
            f"{with_cse.measured_cost:.1f} with "
            f"({without.measured_cost / with_cse.measured_cost:.2f}x)",
            file=out,
        )
    return 0


def _cmd_trace(args: argparse.Namespace, out) -> int:
    from .obs import (
        analyze,
        load_trace,
        render_chrome_trace,
        render_critical_path,
        render_summary,
    )

    trace = load_trace(args.file)
    if args.export == "chrome":
        payload = render_chrome_trace(trace.events, trace.header)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as sink:
                sink.write(payload + "\n")
            print(
                f"wrote chrome trace ({len(trace.events)} event(s)) "
                f"to {args.out}",
                file=out,
            )
        else:
            print(payload, file=out)
        return 0
    shown = False
    if args.critical_path:
        print(render_critical_path(analyze(trace.events)), file=out)
        shown = True
    if args.summary or not shown:
        if shown:
            print("", file=out)
        print(render_summary(trace), file=out)
    return 0


def _rewrite_trace_export(argv: List[str]) -> List[str]:
    """``trace export FILE --format chrome`` → ``trace FILE --export chrome``.

    The spelled-out form reads naturally but argparse subcommands do not
    nest; rewriting keeps one parser for both spellings."""
    try:
        index = argv.index("trace")
    except ValueError:
        return argv
    if argv[index + 1 : index + 2] != ["export"]:
        return argv
    rest = argv[index + 2 :]
    fmt = "chrome"
    kept: List[str] = []
    skip = False
    for pos, token in enumerate(rest):
        if skip:
            skip = False
            continue
        if token == "--format":
            if pos + 1 < len(rest):
                fmt = rest[pos + 1]
                skip = True
            continue
        kept.append(token)
    return [*argv[: index + 1], *kept, "--export", fmt]


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(_rewrite_trace_export(argv))
    try:
        if args.command == "query":
            return _cmd_query(args, out)
        if args.command == "explain":
            return _cmd_explain(args, out)
        if args.command == "bench":
            return _cmd_bench(args, out)
        if args.command == "serve-metrics":
            return _cmd_serve_metrics(args, out)
        if args.command == "trace":
            return _cmd_trace(args, out)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 2
