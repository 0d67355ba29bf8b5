"""High-level API: the :class:`Session` facade.

Typical use::

    from repro import Session

    session = Session.tpch(scale_factor=0.01)
    outcome = session.execute('''
        select c_nationkey, sum(l_extendedprice) as le
        from customer, orders, lineitem
        where c_custkey = o_custkey and o_orderkey = l_orderkey
        group by c_nationkey;

        select c_mktsegment, sum(l_quantity) as lq
        from customer, orders, lineitem
        where c_custkey = o_custkey and o_orderkey = l_orderkey
        group by c_mktsegment
    ''')
    print(outcome.optimization.stats.used_cses)   # shared subexpressions
    print(outcome.execution.query("Q1").rows[:5])
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace
from time import perf_counter
from typing import TYPE_CHECKING, Optional, Sequence, Union

from .errors import (
    BudgetExceededError,
    OptimizerError,
    OptimizerTimeoutError,
    QueryTimeoutError,
    ReproError,
)
from .executor.executor import BatchResult, Executor
from .executor.schedule import query_spool_read_counts
from .logical.blocks import BoundBatch, BoundQuery
from .obs import (
    NULL_JOURNAL,
    NULL_QUERY_LOG,
    NULL_REGISTRY,
    NULL_TRACER,
    DecisionJournal,
    MetricsRegistry,
    QueryLog,
    SharingLedger,
    Tracer,
    build_ledger,
    estimated_ledger,
)
from .optimizer.cost import CostModel
from .optimizer.engine import OptimizationResult, Optimizer
from .optimizer.explain import explain_with_costs, render_analyzed_bundle
from .optimizer.options import OptimizerOptions
from .serve.cache import PlanCache, cached_optimize, register_invalidation
from .serve.fingerprint import batch_fingerprint
from .serve.governor import CancellationToken, QueryBudget, ResourceGovernor
from .sql.binder import Binder
from .sql.parser import parse_batch
from .storage.database import Database

if TYPE_CHECKING:  # deferred: api → serve.coordinator → api cycle
    from .serve.coordinator import SharedBatchCoordinator


@dataclass
class ExecutionOutcome:
    """The result of :meth:`Session.execute`: plans plus rows plus metrics."""

    optimization: OptimizationResult
    execution: BatchResult
    #: True when the optimization came from the session's plan cache (the
    #: optimizer did not run for this call).
    plan_cache_hit: bool = False
    #: True when the governor degraded this call to the no-sharing
    #: baseline (optimizer fallback or spool-budget fallback).
    degraded: bool = False
    #: why the call degraded: ``"optimizer_error"``,
    #: ``"optimizer_deadline"``, or ``"spool_budget"`` (None when not
    #: degraded).
    fallback_reason: Optional[str] = None
    #: the sharing-economics ledger for this batch (estimated vs measured
    #: Def 5.1 savings per shared spool and per query); None only when the
    #: batch was never executed.
    ledger: Optional[SharingLedger] = None

    @property
    def est_cost(self) -> float:
        """The optimizer's estimated cost of the chosen bundle."""
        return self.optimization.est_cost

    @property
    def measured_cost(self) -> float:
        """Deterministic cost units measured during execution."""
        return self.execution.metrics.cost_units


class Session:
    """A connection-like facade over a database, optimizer, and executor.

    ``workers`` sets the default execution parallelism: with ``workers=N``
    (N > 1) every :meth:`execute` schedules the bundle's task DAG on N
    threads; with 1 the same tasks run inline on the calling thread.
    ``plan_cache_size`` bounds the per-session LRU plan cache (``0``
    disables caching): a warm :meth:`execute` skips optimization entirely,
    and any mutation of the underlying :class:`Database` invalidates the
    affected entries.

    Telemetry sinks (all optional, all no-ops by default):

    * ``registry`` — counters/timers/histograms; hand the same registry to
      a :class:`~repro.obs.TelemetryServer` to expose it at ``/metrics`` in
      Prometheus text format.
    * ``tracer`` — spans and events; one built with ``Tracer(path=…)``
      streams to a JSONL file that :meth:`close` (or the context manager)
      settles.
    * ``query_log`` — one structured JSONL record per :meth:`execute`;
      records over the log's ``slow_ms`` threshold carry the full EXPLAIN
      ANALYZE tree of the run that was measured (no re-execution).
    * ``journal`` — the optimizer's decision journal: every candidate's
      lifecycle from signature bucket to keep/reject verdict. Also
      available per-call via ``explain(..., why=True)``.
    """

    def __init__(
        self,
        database: Database,
        options: Optional[OptimizerOptions] = None,
        cost_model: Optional[CostModel] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        workers: int = 1,
        plan_cache_size: int = 64,
        journal: Optional[DecisionJournal] = None,
        query_log: Optional[QueryLog] = None,
        governor: Optional[ResourceGovernor] = None,
        default_budget: Optional[QueryBudget] = None,
        shared_scans: bool = True,
        morsel_rows: int = 4096,
        coordinator: Optional["SharedBatchCoordinator"] = None,
    ) -> None:
        self.database = database
        self.options = options or OptimizerOptions()
        self.cost_model = cost_model or CostModel()
        #: share one physical scan per (table, column-set) group per batch.
        self.shared_scans = shared_scans
        #: rows per morsel streamed through fused pipelines (<=0: whole
        #: frame in one morsel).
        self.morsel_rows = morsel_rows
        #: observability sinks shared by every optimize/execute on this
        #: session; the null defaults make instrumentation a no-op.
        self.registry = registry or NULL_REGISTRY
        self.tracer = tracer or NULL_TRACER
        # Explicit None checks: journals and query logs are sized containers,
        # so a fresh (empty) one is falsy and `or` would drop it.
        self.journal = journal if journal is not None else NULL_JOURNAL
        self.query_log = (
            query_log if query_log is not None else NULL_QUERY_LOG
        )
        #: admission control shared across this session's executes (and any
        #: other sessions holding the same governor). A governor built with
        #: the default null registry inherits the session's, so its
        #: ``governor.*`` metrics flow through the same Prometheus path.
        self.governor = governor
        if (
            governor is not None
            and governor.registry is NULL_REGISTRY
            and self.registry is not NULL_REGISTRY
        ):
            governor.registry = self.registry
        #: budget applied to every :meth:`execute` that does not pass its
        #: own (None = ungoverned).
        self.default_budget = default_budget
        #: cross-session micro-batching (see
        #: :class:`~repro.serve.coordinator.SharedBatchCoordinator`): the
        #: sessions holding one coordinator share its windows. Like the
        #: governor, a coordinator built with the null registry inherits
        #: the session's.
        self.coordinator = coordinator
        if (
            coordinator is not None
            and coordinator.registry is NULL_REGISTRY
            and self.registry is not NULL_REGISTRY
        ):
            coordinator.registry = self.registry
        self.workers = max(1, workers)
        self.plan_cache = None
        if plan_cache_size > 0:
            self.plan_cache = PlanCache(
                plan_cache_size, registry=self.registry
            )
            register_invalidation(database, self.plan_cache)

    # -- constructors ------------------------------------------------------

    @classmethod
    def tpch(
        cls,
        scale_factor: float = 0.01,
        seed: int = 20070612,
        options: Optional[OptimizerOptions] = None,
        **kwargs,
    ) -> "Session":
        """A session over a freshly generated TPC-H database.

        Keyword arguments (``cost_model``, ``registry``, ``tracer``,
        ``workers``, ``plan_cache_size``, …) are forwarded to the
        constructor unchanged."""
        from .catalog.tpch import build_tpch_database

        return cls(build_tpch_database(scale_factor, seed), options, **kwargs)

    # -- binding -------------------------------------------------------------

    def bind(
        self, sql: str, names: Optional[Sequence[str]] = None
    ) -> BoundBatch:
        """Parse and bind a semicolon-separated query batch."""
        return Binder(self.database.catalog).bind_batch(parse_batch(sql), names)

    def _as_batch(self, target: Union[str, BoundBatch, BoundQuery]) -> BoundBatch:
        if isinstance(target, str):
            return self.bind(target)
        if isinstance(target, BoundQuery):
            return BoundBatch(queries=[target])
        if isinstance(target, BoundBatch):
            return target
        raise ReproError(f"cannot optimize {type(target).__name__}")

    # -- optimization & execution ------------------------------------------

    def optimize(
        self,
        target: Union[str, BoundBatch, BoundQuery],
        journal: Optional[DecisionJournal] = None,
        deadline: Optional[float] = None,
    ) -> OptimizationResult:
        """Optimize a batch (CSE detection/exploitation per session options).

        ``journal`` overrides the session's decision journal for this call
        (``explain(why=True)`` uses this to scope the report to one batch).
        ``deadline`` is an absolute :func:`time.monotonic` instant after
        which the optimizer raises
        :class:`~repro.errors.OptimizerTimeoutError` at its next phase
        boundary."""
        batch = self._as_batch(target)
        optimizer = Optimizer(
            self.database,
            self.options,
            self.cost_model,
            registry=self.registry,
            tracer=self.tracer,
            journal=journal if journal is not None else self.journal,
            deadline=deadline,
        )
        return optimizer.optimize(batch)

    def execute(
        self,
        target: Union[str, BoundBatch, BoundQuery],
        collect_op_stats: bool = False,
        workers: Optional[int] = None,
        budget: Optional[QueryBudget] = None,
    ) -> ExecutionOutcome:
        """Optimize (or fetch a cached plan) then execute.

        ``workers`` overrides the session's ``workers`` for this call: N > 1
        schedules the bundle's task DAG on N pool threads, 1 runs it inline.

        ``budget`` (default: the session's ``default_budget``) governs the
        call: its deadline and spool/row limits are checked cooperatively
        throughout optimization and execution. Optimizer failures and
        budget busts degrade to the paper's no-sharing baseline plan
        (``outcome.degraded``); deadline expiry raises
        :class:`~repro.errors.QueryTimeoutError`. When the session has a
        :class:`~repro.serve.ResourceGovernor`, the call first passes
        admission control (which may raise
        :class:`~repro.errors.AdmissionError`)."""
        batch = self._as_batch(target)
        # A slow-query threshold means we may need the analyzed tree of
        # *this* run; collect operator stats up front rather than re-run.
        if self.query_log.enabled and self.query_log.slow_ms is not None:
            collect_op_stats = True
        if budget is None:
            budget = self.default_budget
        start = perf_counter()
        admit = (
            self.governor.admit() if self.governor is not None
            else nullcontext()
        )
        with admit:
            # One root span per batch: optimization, governor events, and
            # every executor task (across worker threads) nest under it.
            with self.tracer.span("batch", queries=len(batch.queries)):
                shared = self._try_shared(
                    target, batch, budget, collect_op_stats
                )
                if shared is not None:
                    result = shared.optimization
                    execution = shared.execution
                    cache_hit = shared.plan_cache_hit
                    reason = None
                    ledger = shared.ledger
                else:
                    token = budget.start() if budget is not None else None
                    result, cache_hit, opt_fallback = self._optimize_governed(
                        batch, budget, token
                    )
                    execution, exec_fallback = self._execute_governed(
                        result, collect_op_stats, workers, budget, token
                    )
                    reason = opt_fallback or exec_fallback
                    ledger = self._build_ledger(result, execution, reason)
        wall = perf_counter() - start
        self.registry.observe("serve.query_seconds", wall)
        outcome = ExecutionOutcome(
            optimization=result,
            execution=execution,
            plan_cache_hit=cache_hit,
            degraded=reason is not None,
            fallback_reason=reason,
            ledger=ledger,
        )
        self._publish_ledger(outcome.ledger)
        if self.query_log.enabled:
            self._log_query(batch, outcome, wall)
        return outcome

    def _try_shared(
        self,
        target: Union[str, BoundBatch, BoundQuery],
        batch: BoundBatch,
        budget: Optional[QueryBudget],
        collect_op_stats: bool,
    ):
        """Offer the call to the cross-session coordinator, if eligible.

        Only raw SQL targets are offered (the coordinator re-binds the
        concatenated text), and only without deadline budgets: a wall-clock
        deadline cannot be meaningfully charged against a shared window
        another session opened. Row/spool budgets *are* eligible — the
        coordinator charges them per consumer exactly once. Returns the
        consumer's :class:`~repro.serve.coordinator.SharedOutcome` or
        ``None`` (run on the ordinary path)."""
        if self.coordinator is None or not self.coordinator.enabled:
            return None
        if not isinstance(target, str) or (
            budget is not None
            and (
                budget.deadline_ms is not None
                or budget.optimizer_deadline_ms is not None
            )
        ):
            self.coordinator.note_bypass()
            return None
        return self.coordinator.submit(
            self, target, batch,
            budget=budget, collect_op_stats=collect_op_stats,
        )

    def _build_ledger(
        self,
        result: OptimizationResult,
        execution: BatchResult,
        fallback_reason: Optional[str],
    ) -> SharingLedger:
        """The batch's sharing ledger (estimated vs measured Def 5.1)."""
        # A spool-budget fallback executed the no-sharing baseline bundle,
        # so planned reads must come from the bundle that actually ran.
        bundle = (
            result.base_bundle
            if fallback_reason == "spool_budget"
            else result.bundle
        )
        return build_ledger(
            result.candidates,
            execution.metrics.spool_stats,
            query_spool_read_counts(bundle),
            scan_stats=execution.metrics.scan_stats,
        )

    def _publish_ledger(self, ledger: Optional[SharingLedger]) -> None:
        """Mirror a batch ledger into metrics, journal, and trace."""
        if ledger is None or not (ledger.spools or ledger.scans):
            return
        ledger.publish(self.registry)
        for cse_id in ledger.negative_spools:
            entry = ledger.spool(cse_id)
            payload = {
                "spool": cse_id,
                "est_savings": round(entry.est_savings, 4),
                "measured_savings": round(entry.measured_savings, 4),
                "consumers": entry.consumers,
            }
            # Sharing that lost money is the input adaptive
            # re-optimization needs — make it loud on every channel.
            if self.journal.enabled:
                self.journal.event("negative_spool_benefit", **payload)
            self.tracer.event("negative_spool_benefit", **payload)

    def _optimize_governed(
        self,
        batch: BoundBatch,
        budget: Optional[QueryBudget],
        token: Optional[CancellationToken],
    ) -> "tuple[OptimizationResult, bool, Optional[str]]":
        """Optimize under the budget's deadline, degrading on failure.

        Returns ``(result, cache_hit, fallback_reason)``. An
        :class:`OptimizerError` (or optimizer-deadline expiry) retries
        with CSE exploitation disabled — the no-sharing plan is always
        valid, so sharing machinery failures never fail the batch. The
        retry bypasses the plan cache entirely: a degraded plan is never
        stored under the batch's normal fingerprint."""
        if budget is None:
            result, cache_hit = cached_optimize(
                self.plan_cache, self, batch, "plan_cache_hit"
            )
            return result, cache_hit, None
        try:
            result, cache_hit = cached_optimize(
                self.plan_cache, self, batch, "plan_cache_hit",
                deadline=budget.optimizer_deadline(token),
            )
            return result, cache_hit, None
        except OptimizerTimeoutError as error:
            if not budget.allow_fallback:
                raise QueryTimeoutError(str(error)) from error
            reason, cause = "optimizer_deadline", error
        except OptimizerError as error:
            if not budget.allow_fallback:
                raise
            reason, cause = "optimizer_error", error
        if token is not None:
            # Only the optimizer's own allowance is fallback-eligible; an
            # expired overall deadline fails the batch here and now.
            token.check()
        result = self._fallback_optimize(batch, token, reason, cause)
        return result, False, reason

    def _fallback_optimize(
        self,
        batch: BoundBatch,
        token: Optional[CancellationToken],
        reason: str,
        cause: BaseException,
    ) -> OptimizationResult:
        """Re-optimize with CSEs disabled (the paper's baseline plan)."""
        self.registry.counter("governor.fallbacks")
        self.registry.counter(f"governor.fallback.{reason}")
        if self.journal.enabled:
            self.journal.event(
                "fallback", stage="optimizer", reason=reason,
                detail=str(cause),
            )
        self.tracer.event("governor_fallback", stage="optimizer",
                          reason=reason)
        optimizer = Optimizer(
            self.database,
            replace(self.options, enable_cse=False),
            self.cost_model,
            registry=self.registry,
            tracer=self.tracer,
            journal=self.journal,
            # The retry still honours the overall deadline (not the spent
            # optimizer allowance): without CSE enumeration it is cheap.
            deadline=token.deadline if token is not None else None,
        )
        start = perf_counter()
        try:
            result = optimizer.optimize(batch)
        except OptimizerTimeoutError as error:
            raise QueryTimeoutError(
                "query deadline exceeded during fallback optimization"
            ) from error
        self.registry.observe(
            "governor.fallback_retry_seconds", perf_counter() - start
        )
        return result

    def _execute_governed(
        self,
        result: OptimizationResult,
        collect_op_stats: bool,
        workers: Optional[int],
        budget: Optional[QueryBudget],
        token: Optional[CancellationToken],
    ) -> "tuple[BatchResult, Optional[str]]":
        """Execute under the token, degrading on a budget bust.

        Returns ``(execution, fallback_reason)``. A
        :class:`BudgetExceededError` (spool or row budget) re-executes the
        no-sharing baseline bundle inline (``workers=1``): it materializes
        no shared spools, so the spool budget cannot re-trip; the retry
        token keeps the original absolute deadline, so the whole call stays
        bounded.
        Deadline expiry (:class:`QueryTimeoutError`) always propagates."""
        try:
            execution = self.execute_bundle(
                result, collect_op_stats, workers=workers, token=token
            )
            return execution, None
        except BudgetExceededError as error:
            if budget is None or not budget.allow_fallback:
                raise
            cause = error
        self.registry.counter("governor.fallbacks")
        self.registry.counter("governor.fallback.spool_budget")
        if self.journal.enabled:
            self.journal.event(
                "fallback", stage="execution", reason="spool_budget",
                detail=str(cause),
            )
        self.tracer.event("governor_fallback", stage="execution",
                          reason="spool_budget")
        start = perf_counter()
        execution = self.execute_bundle(
            result,
            collect_op_stats,
            workers=1,
            token=token.for_retry() if token is not None else None,
            bundle=result.base_bundle,
        )
        self.registry.observe(
            "governor.fallback_retry_seconds", perf_counter() - start
        )
        return execution, "spool_budget"

    def _log_query(
        self, batch: BoundBatch, outcome: ExecutionOutcome, wall: float
    ) -> None:
        """Append one structured record for an executed batch."""
        stats = outcome.optimization.stats
        metrics = outcome.execution.metrics
        wall_ms = wall * 1000.0
        record = {
            "fingerprint": batch_fingerprint(batch),
            "queries": [q.name for q in batch.queries],
            "plan_cache_hit": outcome.plan_cache_hit,
            "candidates_generated": stats.candidates_generated,
            "candidates_kept": len(stats.used_cses),
            "cses_used": list(stats.used_cses),
            "spool_rows_written": metrics.spool_rows_written,
            "spool_rows_read": metrics.spool_rows_read,
            "estimated_savings": round(
                stats.est_cost_no_cse - stats.est_cost_final, 4
            ),
            "wall_ms": round(wall_ms, 3),
            "rows": sum(r.row_count for r in outcome.execution.results),
            "degraded": outcome.degraded,
        }
        if outcome.fallback_reason is not None:
            record["fallback_reason"] = outcome.fallback_reason
        if outcome.ledger is not None and (
            outcome.ledger.spools or outcome.ledger.scans
        ):
            # The same rounded payload the metrics gauges and EXPLAIN
            # ANALYZE carry, so the three surfaces agree exactly.
            record["ledger"] = outcome.ledger.to_payload()
        if self.query_log.is_slow(wall_ms):
            record["explain_analyze"] = render_analyzed_bundle(
                self.database,
                outcome.optimization,
                outcome.execution,
                self.cost_model,
                ledger=outcome.ledger,
            )
        self.query_log.record(record)

    def close(self) -> None:
        """Settle the tracer's trace file, if it writes one."""
        self.tracer.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def executor(self, workers: Optional[int] = None) -> Executor:
        """The task runner configured like this session (``workers``
        defaults to the session's)."""
        return Executor(
            self.database,
            self.cost_model,
            registry=self.registry,
            tracer=self.tracer,
            shared_scans=self.shared_scans,
            morsel_rows=self.morsel_rows,
            workers=self.workers if workers is None else workers,
        )

    def execute_bundle(
        self,
        result: OptimizationResult,
        collect_op_stats: bool = False,
        workers: Optional[int] = None,
        token: Optional[CancellationToken] = None,
        bundle=None,
    ) -> BatchResult:
        """Execute a previously optimized bundle.

        ``token`` arms cooperative deadline/budget checks in the executor;
        ``bundle`` overrides the bundle to run (the governor's fallback
        path uses it to execute ``result.base_bundle``)."""
        return self.executor(workers).execute(
            bundle if bundle is not None else result.bundle,
            collect_op_stats,
            token=token,
        )

    def explain(
        self,
        target: Union[str, BoundBatch, BoundQuery],
        costs: bool = False,
        analyze: bool = False,
        workers: Optional[int] = None,
        why: bool = False,
    ) -> str:
        """The optimized plan as text, including any shared spools.

        With ``costs=True`` every operator is annotated with its local and
        cumulative estimated cost. With ``analyze=True`` the bundle is
        *executed* and each operator additionally reports actual rows and
        wall time, plus spool cost attribution and optimizer counters.
        With ``why=True`` the report instead explains the optimizer's
        decisions: every candidate CSE's lifecycle from signature bucket
        through the H1–H4 heuristics to its keep/reject verdict.
        """
        if why:
            # A fresh journal scopes the report to this batch even when the
            # session carries a long-lived one.
            journal = DecisionJournal()
            result = self.optimize(target, journal=journal)
            header = [
                f"estimated cost: {result.est_cost:.2f} "
                f"(without CSEs: {result.stats.est_cost_no_cse:.2f})",
                f"candidates: {result.stats.candidate_ids}"
                f" used: {result.stats.used_cses}",
                "",
            ]
            report = "\n".join(header) + journal.render_why()
            ledger = estimated_ledger(
                result.candidates, query_spool_read_counts(result.bundle)
            )
            if ledger.spools:
                # Plan-time economics only — the batch never ran here, so
                # measured columns are zero by construction.
                report += "\n\n" + ledger.render()
            return report
        result = self.optimize(target)
        if analyze:
            execution = self.execute_bundle(
                result, collect_op_stats=True, workers=workers
            )
            return render_analyzed_bundle(
                self.database,
                result,
                execution,
                self.cost_model,
                ledger=self._build_ledger(result, execution, None),
            )
        header = [
            f"estimated cost: {result.est_cost:.2f} "
            f"(without CSEs: {result.stats.est_cost_no_cse:.2f})",
            f"candidates: {result.stats.candidate_ids}"
            f" used: {result.stats.used_cses}",
        ]
        if costs:
            body = explain_with_costs(
                self.database, result.bundle, self.cost_model
            )
        else:
            body = result.bundle.describe()
        return "\n".join(header) + "\n" + body
