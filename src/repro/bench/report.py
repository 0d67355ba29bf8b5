"""Consolidated experiment report.

``python -m repro bench all`` (or :func:`generate_report`) runs every §6
experiment at the requested scale factor and renders one markdown report —
the machine-generated companion to EXPERIMENTS.md.
"""

from __future__ import annotations

import io
import time
from typing import List, Optional

import numpy as np

from ..api import Session
from ..optimizer.options import OptimizerOptions
from ..storage.database import Database
from ..workloads import (
    complex_join_batch,
    example1_batch,
    example1_with_q4,
    nested_query,
    scaleup_batch,
)
from .harness import (
    MODE_CSE,
    MODE_NO_CSE,
    MODE_NO_HEURISTICS,
    format_table,
    run_scenario,
    speedup,
)


def _markdown_table(results) -> List[str]:
    lines = [
        "| | " + " | ".join(r.mode for r in results) + " |",
        "|---|" + "---|" * len(results),
        "| # of CSEs [opts] | " + " | ".join(r.cses_cell for r in results) + " |",
        "| optimization time (s) | "
        + " | ".join(f"{r.optimization_time:.3f}" for r in results) + " |",
        "| estimated cost | "
        + " | ".join(f"{r.est_cost:.1f}" for r in results) + " |",
        "| execution cost (units) | "
        + " | ".join(f"{r.exec_cost:.1f}" for r in results) + " |",
        "| execution time (s) | "
        + " | ".join(f"{r.exec_time:.3f}" for r in results) + " |",
        "| cardinality q-error (mean/max) | "
        + " | ".join(
            f"{r.q_error_mean:.2f} / {r.q_error_max:.2f}" for r in results
        )
        + " |",
        "| spools (writes/reads) | "
        + " | ".join(
            f"{r.counter('executor.spools_materialized'):g} / "
            f"{r.counter('executor.spool_reads'):g}"
            for r in results
        )
        + " |",
    ]
    return lines


def generate_report(
    database: Database,
    scale_factor: float,
    include_table4: bool = True,
    include_maintenance: bool = True,
) -> str:
    """Run all experiments and return the markdown report."""
    out: List[str] = [
        "# Experiment report",
        "",
        f"Synthetic TPC-H at scale factor {scale_factor} "
        f"(lineitem: {database.table('lineitem').row_count} rows).",
        "",
    ]

    experiments = [
        ("Table 1 — query batch (Q1, Q2, Q3)", example1_batch()),
        ("Table 2 — query batch (Q1..Q4)", example1_with_q4()),
        ("Table 3 — nested query", nested_query()),
    ]
    if include_table4:
        experiments.append(("Table 4 — complex joins", complex_join_batch()))

    for title, sql in experiments:
        results = run_scenario(database, sql)
        out.append(f"## {title}")
        out.append("")
        out.extend(_markdown_table(results))
        out.append("")
        out.append(f"execution-cost reduction: **{speedup(results):.2f}x**")
        out.append("")

    # Figure 8 series.
    out.append("## Figure 8 — scale-up")
    out.append("")
    out.append("| queries | est cost no CSE | est cost CSE | benefit | opt time |")
    out.append("|---|---|---|---|---|")
    for n in (2, 4, 6, 8, 10):
        sql = scaleup_batch(n)
        base = Session(database, OptimizerOptions(enable_cse=False)).optimize(sql)
        shared = Session(database, OptimizerOptions()).optimize(sql)
        out.append(
            f"| {n} | {base.est_cost:.1f} | {shared.est_cost:.1f} | "
            f"{base.est_cost - shared.est_cost:.1f} | "
            f"{shared.stats.optimization_time:.3f}s |"
        )
    out.append("")

    if include_maintenance:
        out.append("## View maintenance (§6.4)")
        out.append("")
        out.append(_maintenance_section(scale_factor))
        out.append("")
    return "\n".join(out)


def _maintenance_section(scale_factor: float) -> str:
    from ..catalog.tpch import build_tpch_database
    from ..views.maintenance import MaintenancePlanner
    from ..workloads.example1 import example1_views

    def setup(options):
        db = build_tpch_database(scale_factor=min(scale_factor, 0.005))
        return MaintenancePlanner(db, example1_views(db), options)

    rng = np.random.default_rng(31)
    segments = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
    rows = [
        (
            60_000_000 + i,
            f"Customer#{60_000_000 + i}",
            int(rng.integers(0, 25)),
            segments[int(rng.integers(0, 5))],
            float(np.round(rng.uniform(0, 1000), 2)),
        )
        for i in range(100)
    ]
    with_cse = setup(OptimizerOptions()).apply_insert("customer", rows)
    without = setup(OptimizerOptions(enable_cse=False)).apply_insert(
        "customer", rows
    )
    ratio = without.measured_cost / with_cse.measured_cost
    return (
        f"three materialized views, 100-row customer insert: "
        f"{without.measured_cost:.1f} units without CSEs, "
        f"{with_cse.measured_cost:.1f} with — **{ratio:.2f}x** "
        f"(shared: {with_cse.optimization.stats.used_cses})"
    )
