"""Dependency-aware parallel execution of plan bundles.

The serial :class:`~repro.executor.executor.Executor` materializes every
root spool, then runs each query in turn. This executor instead schedules
the bundle's producer/consumer DAG (:mod:`repro.serve.schedule`) on a
``ThreadPoolExecutor``: each CSE spool materializes exactly once — its task
is the latch; consumers are only submitted after every spool they read has
completed — while independent queries run concurrently.

Correctness model:

* Each task runs with its *own* :class:`ExecutionContext` (metrics and
  op-stat maps are thread-local to the task) over a *shared* spool map.
  The map is only written by a spool task before any of its consumers
  start, and :class:`WorkTable` columns are immutable once loaded, so
  consumers see fully materialized spools without further locking.
* Per-task metrics are merged in schedule order (spools first, then
  queries in batch order) — the same accumulation order as the serial
  executor — so deterministic counters (rows, spool accounting) are
  identical and float totals agree to rounding.
* Worker exceptions are captured and re-raised in the calling thread after
  in-flight tasks drain; nothing leaks into the pool.

Results are byte-identical to serial execution: every operator is
order-preserving and tasks do not share mutable state.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..errors import ExecutionError, QueryCancelledError
from ..executor.executor import BatchResult, Executor, QueryResult
from ..executor.iterators import materialize_spool
from ..executor.runtime import ExecutionContext, ExecutionMetrics
from ..executor.scans import ScanManager
from ..obs import MetricsRegistry, OperatorStats, SpanContext, Tracer
from ..optimizer.cost import CostModel
from ..optimizer.engine import PlanBundle
from ..optimizer.physical import PhysicalPlan
from ..storage.database import Database
from ..storage.worktable import WorkTable
from .governor import CancellationToken
from .schedule import Schedule, TaskSpec, build_schedule


class _TaskOutcome:
    """What one finished task hands back for deterministic merging."""

    __slots__ = ("metrics", "op_stats", "result", "plan")

    def __init__(
        self,
        metrics: ExecutionMetrics,
        op_stats: Optional[Dict[int, OperatorStats]],
        result: Optional[QueryResult] = None,
        plan: Optional[PhysicalPlan] = None,
    ) -> None:
        self.metrics = metrics
        self.op_stats = op_stats
        self.result = result
        self.plan = plan


class ParallelExecutor(Executor):
    """Executes plan bundles over their spool DAG on a thread pool."""

    def __init__(
        self,
        database: Database,
        cost_model: Optional[CostModel] = None,
        registry: Optional[MetricsRegistry] = None,
        workers: int = 2,
        tracer: Optional[Tracer] = None,
        shared_scans: bool = True,
        morsel_rows: int = 4096,
    ) -> None:
        super().__init__(
            database,
            cost_model,
            registry=registry,
            tracer=tracer,
            shared_scans=shared_scans,
            morsel_rows=morsel_rows,
        )
        if workers < 1:
            raise ExecutionError("workers must be positive")
        self.workers = workers

    def execute(
        self,
        bundle: PlanBundle,
        collect_op_stats: bool = False,
        token: Optional[CancellationToken] = None,
    ) -> BatchResult:
        """Execute a bundle with dependency-aware parallelism.

        ``token`` is shared by every task: a deadline/budget trip in one
        task cancels the token, so siblings abort at their next cooperative
        checkpoint and not-yet-submitted dependents are never started."""
        if self.workers == 1:
            return super().execute(bundle, collect_op_stats, token=token)
        start = time.perf_counter()
        schedule = build_schedule(bundle, include_scans=self.shared_scans)
        # One dict build for the whole batch: the per-task lookup used to
        # rebuild dict(bundle.root_spools) inside every spool task, an
        # O(spools²) rescan of the bundle under a wide DAG.
        spool_bodies: Dict[str, PhysicalPlan] = dict(bundle.root_spools)
        # A batch-internal token (flag-only checks) when ungoverned, so
        # first-failure propagation below can always cancel the DAG.
        if token is None:
            token = CancellationToken()
        spools: Dict[str, WorkTable] = {}
        # Producer span ids, shared batch-wide like ``spools`` (written by
        # a spool task before its consumers are submitted).
        spool_spans: Dict[str, int] = {}
        # One scan manager for the whole batch, shared by every task's
        # context the same way ``spools`` is: per-key locks make each
        # physical fetch exactly-once, so merged totals stay deterministic.
        scans = ScanManager() if self.shared_scans else None
        with self.tracer.span(
            "execute_batch",
            queries=len(bundle.queries),
            workers=self.workers,
        ):
            # The batch span, captured while open: every task stamps it
            # into its spec and re-attaches it on the worker thread, so no
            # worker-side span is orphaned from the batch root.
            batch_context = self.tracer.current_context()
            outcomes = self._run_schedule(
                schedule,
                bundle,
                spool_bodies,
                spools,
                spool_spans,
                collect_op_stats,
                token,
                batch_context,
                scans,
            )
        metrics = ExecutionMetrics()
        op_stats: Optional[Dict[int, OperatorStats]] = (
            {} if collect_op_stats else None
        )
        results: List[QueryResult] = []
        executed_plans: Dict[str, PhysicalPlan] = {}
        # Merge in schedule order == serial accumulation order.
        for task in schedule.tasks:
            outcome = outcomes[task.index]
            metrics.merge(outcome.metrics)
            if op_stats is not None and outcome.op_stats:
                for node_id, stats in outcome.op_stats.items():
                    slot = op_stats.get(node_id)
                    if slot is None:
                        op_stats[node_id] = slot = OperatorStats()
                    slot.merge(stats)
            if task.kind == "query":
                results.append(outcome.result)
                executed_plans[task.label] = outcome.plan
        wall = time.perf_counter() - start
        metrics.publish(self.registry)
        self.registry.timer_add("executor.wall", wall)
        self.registry.counter("executor.parallel_batches")
        self.registry.gauge("executor.parallel_workers", self.workers)
        return BatchResult(
            results=results,
            metrics=metrics,
            wall_time=wall,
            op_stats=op_stats,
            executed_plans=executed_plans,
        )

    # ------------------------------------------------------------------

    def _task_context(
        self,
        spools: Dict[str, WorkTable],
        spool_spans: Dict[str, int],
        collect_op_stats: bool,
        token: Optional[CancellationToken] = None,
        scans: Optional[ScanManager] = None,
    ) -> ExecutionContext:
        return ExecutionContext(
            database=self.database,
            cost_model=self.cost_model,
            registry=self.registry,
            spools=spools,
            spool_spans=spool_spans,
            op_stats={} if collect_op_stats else None,
            token=token,
            tracer=self.tracer,
            scans=scans,
            morsel_rows=self.morsel_rows,
        )

    def _run_task(
        self,
        task: TaskSpec,
        bundle: PlanBundle,
        spool_bodies: Dict[str, PhysicalPlan],
        spools: Dict[str, WorkTable],
        spool_spans: Dict[str, int],
        collect_op_stats: bool,
        token: Optional[CancellationToken],
        scans: Optional[ScanManager] = None,
    ) -> _TaskOutcome:
        ctx = self._task_context(
            spools, spool_spans, collect_op_stats, token, scans
        )
        start = time.perf_counter()
        outcome = "ok"
        try:
            # Re-establish the batch span on this worker thread, then open
            # the task's own span under it: all the executor spans below
            # (spool_materialize / query / op:*) chain up to the batch root.
            with self.tracer.attach(task.span_context), self.tracer.span(
                "task", kind=task.kind, label=task.label
            ):
                return self._run_task_body(
                    task, bundle, spool_bodies, spools, ctx
                )
        except QueryCancelledError:
            outcome = "cancelled"
            raise
        except BaseException:
            outcome = "error"
            raise
        finally:
            # Latency is recorded for every task, not just successes —
            # otherwise the slowest (failing/timed-out) tasks vanish from
            # the p99 — with the outcome tagged on the Prometheus series.
            self.registry.observe(
                "executor.task_seconds",
                time.perf_counter() - start,
                labels={"outcome": outcome},
            )

    def _run_task_body(
        self,
        task: TaskSpec,
        bundle: PlanBundle,
        spool_bodies: Dict[str, PhysicalPlan],
        spools: Dict[str, WorkTable],
        ctx: ExecutionContext,
    ) -> _TaskOutcome:
        if task.kind == "scan":
            # Prewarm one shared (table, columns) group: the single
            # physical fetch happens here, off the consumers' critical
            # path; consumers (which depend on this task) alias the
            # cached arrays. The fetch charge lands in this task's
            # metrics — totals still merge deterministically because the
            # manager's locks make the charge exactly-once batch-wide.
            assert ctx.scans is not None and task.scan is not None
            physical, names = task.scan
            ctx.scans.prewarm(physical, frozenset(names), ctx)
            return _TaskOutcome(ctx.metrics, ctx.op_stats)
        if task.kind == "spool":
            body = spool_bodies[task.label]
            if task.label not in spools:
                worktable = materialize_spool(task.label, body, ctx)
                # Publishing the finished table is the consumers' latch:
                # their tasks are only submitted after this one
                # completes — and it happens only after every budget
                # charge passed, so a cancelled task never leaves a
                # partial spool in the shared map.
                spools[task.label] = worktable
            return _TaskOutcome(ctx.metrics, ctx.op_stats)
        query_plan = next(
            q for q in bundle.queries if q.name == task.label
        )
        result, plan = self._execute_query(query_plan, ctx)
        return _TaskOutcome(ctx.metrics, ctx.op_stats, result, plan)

    def _run_schedule(
        self,
        schedule: Schedule,
        bundle: PlanBundle,
        spool_bodies: Dict[str, PhysicalPlan],
        spools: Dict[str, WorkTable],
        spool_spans: Dict[str, int],
        collect_op_stats: bool,
        token: CancellationToken,
        batch_context: Optional[SpanContext] = None,
        scans: Optional[ScanManager] = None,
    ) -> Dict[int, _TaskOutcome]:
        """Topological wave scheduling with bounded workers."""
        outcomes: Dict[int, _TaskOutcome] = {}
        waiting = {task.index: set(task.deps) for task in schedule.tasks}
        dependents: Dict[int, List[TaskSpec]] = {}
        for task in schedule.tasks:
            for dep in task.deps:
                dependents.setdefault(dep, []).append(task)
        by_index = {task.index: task for task in schedule.tasks}
        failure: Optional[BaseException] = None
        with ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-worker"
        ) as pool:
            running: Dict[Future, int] = {}

            def submit(task: TaskSpec) -> None:
                # Stamp the batch span into the spec at submit time: the
                # worker thread re-attaches it (Tracer.attach) so its
                # spans join the batch root's tree.
                if batch_context is not None:
                    task = replace(task, span_context=batch_context)
                future = pool.submit(
                    self._run_task,
                    task,
                    bundle,
                    spool_bodies,
                    spools,
                    spool_spans,
                    collect_op_stats,
                    token,
                    scans,
                )
                running[future] = task.index

            for task in schedule.tasks:
                if not waiting[task.index]:
                    submit(task)
            while running:
                done, _ = wait(set(running), return_when=FIRST_COMPLETED)
                for future in done:
                    index = running.pop(future)
                    error = future.exception()
                    if error is not None:
                        # Remember the failure; stop submitting new work
                        # and cancel the shared token so in-flight siblings
                        # drain at their next checkpoint instead of running
                        # to completion. The root cause wins over the
                        # cancellations it induces in siblings.
                        if failure is None or (
                            isinstance(failure, QueryCancelledError)
                            and not isinstance(error, QueryCancelledError)
                        ):
                            failure = error
                        token.cancel(
                            f"task {by_index[index].label!r} failed: {error}"
                        )
                        continue
                    outcomes[index] = future.result()
                    if failure is not None:
                        continue
                    for dependent in dependents.get(index, ()):
                        pending = waiting[dependent.index]
                        pending.discard(index)
                        if not pending:
                            submit(dependent)
        if failure is not None:
            raise failure
        if len(outcomes) != len(schedule.tasks):
            unfinished = sorted(
                by_index[i].label
                for i in waiting
                if i not in outcomes
            )
            raise ExecutionError(
                f"schedule deadlock; unfinished tasks: {unfinished}"
            )
        return outcomes
