"""repro — a reproduction of "Efficient Exploitation of Similar
Subexpressions for Query Processing" (Zhou, Larson, Freytag, Lehner;
SIGMOD 2007).

The package contains a complete, from-scratch query-processing stack —
storage engine, TPC-H data generator, SQL frontend, Cascades-style
cost-based optimizer, and vectorized executor — with the paper's
contribution at its core: detection (table signatures), construction
(covering subexpressions with cost-based heuristics), and correct
cost-based optimization (LCA spool costing, usage-profile search,
stacked CSEs) of similar subexpressions across query batches, nested
queries, and materialized-view maintenance.

Public entry points:

* :class:`Session` — bind/optimize/execute SQL batches.
* :func:`build_tpch_database` — the synthetic TPC-H substrate.
* :class:`OptimizerOptions` — the CSE and heuristics switches.
* :class:`MetricsRegistry` / :class:`Tracer` — opt-in observability sinks
  for optimizer/executor counters, latency histograms, and structured
  trace events; :class:`TelemetryServer` exposes a registry over HTTP in
  Prometheus text format.
* :class:`QueryLog` — one structured JSONL record per executed batch,
  with slow queries carrying their full EXPLAIN ANALYZE tree.
* ``Session.explain(why=True)`` / ``repro explain --why`` — the decision
  journal: every candidate's lifecycle, rendered from the optimizer's
  trace events (:func:`repro.obs.render_why`).
* :class:`PlanCache` — the serving layer: signature-keyed plan caching;
  dependency-aware parallel batch execution is ``Session(workers=N)``
  or ``execute(workers=N)``.
* :class:`ResourceGovernor` / :class:`QueryBudget` — admission control and
  per-batch deadlines/budgets with cooperative cancellation; failures of
  the sharing machinery degrade to the paper's no-sharing baseline plan
  (``Session(governor=...)``, ``execute(sql, budget=...)``).
"""

from .api import ExecutionOutcome, Session
from .obs import (
    Histogram,
    MetricsRegistry,
    QueryLog,
    SpanContext,
    TelemetryServer,
    Tracer,
    render_prometheus,
)
from .serve import (
    CancellationToken,
    PlanCache,
    QueryBudget,
    ResourceGovernor,
)
from .catalog.tpch import build_tpch_database
from .errors import (
    AdmissionError,
    BindError,
    BudgetExceededError,
    CatalogError,
    ExecutionError,
    GovernorError,
    LexerError,
    OptimizerError,
    OptimizerTimeoutError,
    ParseError,
    QueryCancelledError,
    QueryTimeoutError,
    ReproError,
    SqlError,
    StorageError,
    UnsupportedFeatureError,
)
from .optimizer.options import OptimizerOptions
from .optimizer.cost import CostModel
from .storage.database import Database

__version__ = "1.0.0"

__all__ = [
    "Session",
    "ExecutionOutcome",
    "build_tpch_database",
    "Database",
    "OptimizerOptions",
    "CostModel",
    "MetricsRegistry",
    "Tracer",
    "SpanContext",
    "Histogram",
    "TelemetryServer",
    "QueryLog",
    "render_prometheus",
    "PlanCache",
    "ResourceGovernor",
    "QueryBudget",
    "CancellationToken",
    "ReproError",
    "CatalogError",
    "StorageError",
    "SqlError",
    "LexerError",
    "ParseError",
    "BindError",
    "OptimizerError",
    "OptimizerTimeoutError",
    "ExecutionError",
    "GovernorError",
    "QueryCancelledError",
    "QueryTimeoutError",
    "BudgetExceededError",
    "AdmissionError",
    "UnsupportedFeatureError",
    "__version__",
]
