"""Shared machinery for the experiment benchmarks.

Each experiment runs a workload in the paper's three modes and reports the
same rows its tables do:

* ``# of CSEs [CSE Opts]`` — candidates given to the optimizer and the
  number of CSE optimization passes,
* ``Optimization time`` — wall-clock seconds in the optimizer,
* ``Estimated cost`` — the optimizer's cost for the chosen plan,
* ``Execution cost`` — deterministic cost units measured by the executor
  (the hardware-independent stand-in for the paper's execution seconds),
* ``Execution time`` — wall-clock seconds in the executor.

Every number comes from a :class:`~repro.obs.MetricsRegistry` snapshot:
:func:`run_mode` times each phase into a ``bench.*_seconds`` histogram and
reads the ``optimizer.*``/``executor.*`` counters the instrumented layers
publish, plus the estimate-vs-actual cardinality error (q-error) computed
from per-operator actuals.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..api import Session
from ..obs import MetricsRegistry
from ..optimizer.options import OptimizerOptions
from ..storage.database import Database

MODE_NO_CSE = "No CSE"
MODE_CSE = "Using CSEs"
MODE_NO_HEURISTICS = "Using CSEs (no heuristics)"


def bench_scale_factor(default: float = 0.01) -> float:
    """Scale factor for benchmarks; override with REPRO_BENCH_SF."""
    return float(os.environ.get("REPRO_BENCH_SF", default))


def options_for(mode: str) -> OptimizerOptions:
    """Optimizer options for one of the paper's three modes."""
    if mode == MODE_NO_CSE:
        return OptimizerOptions(enable_cse=False)
    if mode == MODE_CSE:
        return OptimizerOptions()
    if mode == MODE_NO_HEURISTICS:
        return OptimizerOptions(enable_heuristics=False)
    raise ValueError(f"unknown mode {mode!r}")


@dataclass
class ScenarioResult:
    """One mode's measurements for one workload."""

    mode: str
    candidates: int
    cse_optimizations: int
    optimization_time: float
    est_cost: float
    exec_cost: float
    exec_time: float
    used_cses: List[str] = field(default_factory=list)
    candidate_ids: List[str] = field(default_factory=list)
    #: the full registry snapshot the run produced
    #: (counters/gauges/histograms).
    snapshot: Dict = field(default_factory=dict)
    #: per-phase wall seconds from the ``bench.*_seconds`` histograms.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: estimate-vs-actual cardinality error over all executed operators;
    #: 1.0 means every estimate was exact.
    q_error_mean: float = 1.0
    q_error_max: float = 1.0

    @property
    def cses_cell(self) -> str:
        """The table cell '<candidates> [<passes>]' (N/A without CSEs)."""
        if self.mode == MODE_NO_CSE:
            return "N/A"
        return f"{self.candidates} [{self.cse_optimizations}]"

    def counter(self, name: str, default: float = 0.0) -> float:
        """One counter from the run's registry snapshot."""
        return self.snapshot.get("counters", {}).get(name, default)


def cardinality_errors(execution, bundle=None) -> List[float]:
    """Per-operator q-errors (max of over/under-estimate factor) from an
    execution that collected op stats. Includes spool bodies when the
    bundle is supplied."""
    plans = list(execution.executed_plans.values())
    if bundle is not None:
        plans.extend(body for _, body in bundle.root_spools)
    errors: List[float] = []
    for plan in plans:
        for node in plan.walk():
            stats = execution.stats_for(node)
            if stats is None:
                continue
            est = max(float(node.est_rows), 1.0)
            actual = max(float(stats.rows_out), 1.0)
            errors.append(max(est / actual, actual / est))
    return errors


def run_mode(
    database: Database,
    sql: str,
    mode: str,
    registry: Optional[MetricsRegistry] = None,
) -> ScenarioResult:
    """Optimize + execute one workload in one mode.

    All reported numbers are read back from the registry snapshot (phase
    histograms ``bench.optimize_seconds``/``bench.execute_seconds``/
    ``bench.total_seconds``, optimizer and executor counters) rather than
    from ad-hoc clocks."""
    registry = registry if registry is not None else MetricsRegistry()
    session = Session(database, options_for(mode), registry=registry)
    with registry.timer("bench.total_seconds"):
        with registry.timer("bench.optimize_seconds"):
            result = session.optimize(sql)
        with registry.timer("bench.execute_seconds"):
            execution = session.execute_bundle(result, collect_op_stats=True)
    snapshot = registry.snapshot()
    histograms = snapshot["histograms"]
    phases = {
        name: histograms[name]["sum"]
        for name in (
            "bench.total_seconds", "bench.optimize_seconds",
            "bench.execute_seconds",
        )
        if name in histograms
    }
    errors = cardinality_errors(execution, result.bundle)
    stats = result.stats
    counters = snapshot.get("counters", {})
    return ScenarioResult(
        mode=mode,
        candidates=int(counters.get(
            "optimizer.candidates_generated", stats.candidates_generated
        )),
        cse_optimizations=int(counters.get(
            "optimizer.cse_passes", stats.cse_optimizations
        )),
        optimization_time=phases.get(
            "bench.optimize_seconds", stats.optimization_time
        ),
        est_cost=result.est_cost,
        exec_cost=counters.get(
            "executor.cost_units", execution.metrics.cost_units
        ),
        exec_time=phases.get("bench.execute_seconds", execution.wall_time),
        used_cses=list(stats.used_cses),
        candidate_ids=list(stats.candidate_ids),
        snapshot=snapshot,
        phase_seconds=phases,
        q_error_mean=(sum(errors) / len(errors)) if errors else 1.0,
        q_error_max=max(errors) if errors else 1.0,
    )


def run_scenario(
    database: Database,
    sql: str,
    modes: Sequence[str] = (MODE_NO_CSE, MODE_CSE, MODE_NO_HEURISTICS),
) -> List[ScenarioResult]:
    """Run a workload in all requested modes."""
    return [run_mode(database, sql, mode) for mode in modes]


def format_table(
    title: str,
    results: Sequence[ScenarioResult],
    paper_reference: Optional[Dict[str, str]] = None,
) -> str:
    """Render results the way the paper's tables read."""
    headers = [""] + [r.mode for r in results]
    rows = [
        ["# of CSEs [CSE Opts]"] + [r.cses_cell for r in results],
        ["Optimization time (secs)"]
        + [f"{r.optimization_time:.3f}" for r in results],
        ["Estimated cost"] + [f"{r.est_cost:.2f}" for r in results],
        ["Execution cost (units)"] + [f"{r.exec_cost:.2f}" for r in results],
        ["Execution time (secs)"] + [f"{r.exec_time:.3f}" for r in results],
        ["Cardinality q-error (mean/max)"]
        + [f"{r.q_error_mean:.2f} / {r.q_error_max:.2f}" for r in results],
        ["Spools (writes/reads)"]
        + [
            f"{r.counter('executor.spools_materialized'):g} / "
            f"{r.counter('executor.spool_reads'):g}"
            for r in results
        ],
    ]
    widths = [
        max(len(str(line[i])) for line in [headers] + rows)
        for i in range(len(headers))
    ]

    def fmt(line):
        return " | ".join(str(v).ljust(w) for v, w in zip(line, widths))

    out = [f"== {title} ==", fmt(headers), "-+-".join("-" * w for w in widths)]
    out.extend(fmt(line) for line in rows)
    if paper_reference:
        out.append("")
        out.append("paper reference: " + "; ".join(
            f"{k}: {v}" for k, v in paper_reference.items()
        ))
    return "\n".join(out)


def speedup(results: Sequence[ScenarioResult]) -> float:
    """Execution-cost reduction of "Using CSEs" vs "No CSE"."""
    by_mode = {r.mode: r for r in results}
    return by_mode[MODE_NO_CSE].exec_cost / by_mode[MODE_CSE].exec_cost
