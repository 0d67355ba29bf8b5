"""Execution of optimized plan bundles: one task runner for every caller.

A bundle is executed as its task DAG (:mod:`repro.executor.schedule`): one
task per shared-scan prewarm, per root spool and per query, with an edge
from every producer to its readers. Def 5.1's contract — a spool's initial
cost ``C_E + C_W`` is paid once, its usage cost ``C_R`` once per consumer —
is the DAG's contract: a spool task runs before, and only before, its
readers. Inside a query task the order is scalar subqueries first, then
the main plan with their results bound as constants.

The same :meth:`Executor.execute` serves three callers, which differ only
in which tasks they select and whose token governs them:

* a session running a whole bundle (every task, the call's token);
* the cross-session leader's producer phase (``spools_only``: the scan and
  spool tasks, ungoverned, into a :class:`BatchState` it keeps);
* a cross-session consumer (``queries=``: its own query tasks, plus any
  spool they need that the passed-in state does not hold, its own token).

``workers == 1`` runs the selected tasks inline on the calling thread in
schedule order — no pool, no threads. ``workers > 1`` submits the same
tasks to a ``ThreadPoolExecutor`` in dependency waves.

Correctness model:

* Each task runs with its *own* :class:`ExecutionContext` (metrics and
  op-stat maps are local to the task) over the batch's *shared*
  :class:`BatchState`, whose docstring states the happens-before edge
  that makes the sharing safe without locks.
* Per-task metrics are merged in schedule order (scans, spools, then
  queries in batch order) whatever order the tasks finished in, so
  deterministic counters (rows, spool accounting) are identical at every
  worker count and float totals agree to rounding.
* Worker exceptions are captured and re-raised in the calling thread after
  in-flight tasks drain; nothing leaks into the pool.

Results are byte-identical at every worker count: every operator is
order-preserving and tasks do not share mutable state.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Collection, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ExecutionError, QueryCancelledError
from ..expr.evaluator import evaluate, frame_length
from ..expr.expressions import Expr, Literal
from ..logical.blocks import ScalarSubquery
from ..obs import (
    NULL_REGISTRY,
    NULL_TRACER,
    MetricsRegistry,
    OperatorStats,
    Tracer,
)
from ..optimizer.cost import CostModel
from ..optimizer.physical import (
    FusedStage,
    PhysFilter,
    PhysFusedPipeline,
    PhysHashAgg,
    PhysHashJoin,
    PhysIndexScan,
    PhysProject,
    PhysScan,
    PhysSort,
    PhysSpoolDef,
    PhysSpoolRead,
    PhysicalPlan,
    PlanBundle,
    QueryPlan,
)
from ..optimizer.aggs import AggCompute
from ..storage.database import Database
from ..storage.worktable import WorkTable
from ..types import DataType, literal_type, string_pool
from .iterators import execute_node, materialize_spool, sort_order_for
from .runtime import ExecutionContext, ExecutionMetrics
from .scans import ScanManager
from .schedule import TaskSpec, build_schedule

if TYPE_CHECKING:  # avoid the executor → serve → executor import cycle
    from ..serve.governor import CancellationToken


@dataclass
class QueryResult:
    """One query's rows, column-named."""

    name: str
    columns: List[str]
    rows: List[Tuple[Any, ...]]

    @property
    def row_count(self) -> int:
        """Number of result rows."""
        return len(self.rows)

    def sorted_rows(self) -> List[Tuple[Any, ...]]:
        """Rows in a canonical order (for order-insensitive comparison)."""
        return sorted(self.rows, key=repr)


@dataclass
class BatchResult:
    """Results and metrics of executing a plan bundle."""

    results: List[QueryResult]
    metrics: ExecutionMetrics
    wall_time: float = 0.0
    #: per-operator actuals keyed by ``id(plan node)``; populated when the
    #: executor ran with ``collect_op_stats=True`` (EXPLAIN ANALYZE).
    op_stats: Optional[Dict[int, OperatorStats]] = None
    #: the plan objects actually executed per query — differs from the
    #: bundle's plans when scalar subqueries were bound to constants.
    executed_plans: Dict[str, PhysicalPlan] = field(default_factory=dict)

    def query(self, name: str) -> QueryResult:
        """One query's result, by name."""
        for result in self.results:
            if result.name == name:
                return result
        raise ExecutionError(f"no result for query {name!r}")

    def stats_for(self, node: PhysicalPlan) -> Optional[OperatorStats]:
        """Recorded actuals for one executed plan node, if any."""
        if self.op_stats is None:
            return None
        return self.op_stats.get(id(node))


@dataclass
class BatchState:
    """What every task context of one batch shares.

    Safe without further locking because of one happens-before edge: a
    spool task records its span id in ``spool_spans`` and then publishes
    its table in ``spools`` only once the table is fully materialized and
    every budget charge has passed, and a reader task is started only
    after every spool task it depends on has finished (:class:`WorkTable`
    columns are immutable once loaded). ``scans`` does its own per-key
    locking. A caller that passes a state in with spools already loaded
    (the cross-session coordinator) vouches for the same edge: those
    tables were complete before the call."""

    spools: Dict[str, WorkTable] = field(default_factory=dict)
    #: ``cse_id -> span_id`` of each spool's materialization span, for the
    #: producer→consumer flow events of consumer-side reads.
    spool_spans: Dict[str, int] = field(default_factory=dict)
    #: one scan manager for the whole batch: per-key locks make each
    #: physical fetch exactly-once, so merged totals stay deterministic.
    scans: Optional[ScanManager] = None


#: what one finished task hands back for deterministic merging: its
#: context (metrics, op stats) and, for a query task, (result, plan).
_TaskOutcome = Tuple[
    ExecutionContext, Optional[Tuple[QueryResult, PhysicalPlan]]
]


class Executor:
    """Executes plan bundles against a database."""

    def __init__(
        self,
        database: Database,
        cost_model: Optional[CostModel] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        shared_scans: bool = True,
        morsel_rows: int = 4096,
        workers: int = 1,
    ) -> None:
        if workers < 1:
            raise ExecutionError("workers must be positive")
        self.database = database
        self.cost_model = cost_model or CostModel()
        self.registry = registry or NULL_REGISTRY
        self.tracer = tracer or NULL_TRACER
        #: engine v2: one physical scan per (table, column-set) per batch.
        self.shared_scans = shared_scans
        #: morsel size for fused streaming pipelines.
        self.morsel_rows = morsel_rows
        #: 1 runs tasks inline; N > 1 schedules them on N pool threads.
        self.workers = workers

    def batch_state(self) -> BatchState:
        """A fresh, empty state for one batch under this configuration."""
        return BatchState(scans=ScanManager() if self.shared_scans else None)

    def execute(
        self,
        bundle: PlanBundle,
        collect_op_stats: bool = False,
        token: Optional["CancellationToken"] = None,
        state: Optional[BatchState] = None,
        queries: Optional[Collection[str]] = None,
        spools_only: bool = False,
    ) -> BatchResult:
        """Run a bundle's tasks: scans, spools, then queries.

        With ``collect_op_stats=True`` the result carries per-operator
        actuals (rows, wall time) for EXPLAIN ANALYZE rendering. ``token``
        (a :class:`~repro.serve.governor.CancellationToken`) arms the
        cooperative deadline/budget checkpoints in the operator loop; it
        is shared by every task, so a trip in one task cancels the token,
        siblings abort at their next checkpoint and not-yet-started
        dependents never run.

        ``state`` is the batch state to run against (default: a fresh
        one); ``queries`` and ``spools_only`` select a subset of the
        bundle's tasks (see :meth:`Schedule.select`). The result's
        metrics cover exactly the tasks this call ran."""
        start = time.perf_counter()
        if state is None:
            state = self.batch_state()
        pooled = self.workers > 1
        # Prewarm tasks move a shared group's single physical fetch off
        # its consumers' critical path; inline there is no such path — the
        # first consumer's fetch *is* that one physical scan.
        schedule = build_schedule(
            bundle, include_scans=pooled and state.scans is not None
        )
        tasks = schedule.select(queries, state.spools, spools_only)
        # One dict build for the whole batch: a per-task lookup would
        # rebuild dict(bundle.root_spools) inside every spool task, an
        # O(spools²) rescan of the bundle under a wide DAG.
        spool_bodies: Dict[str, PhysicalPlan] = dict(bundle.root_spools)
        query_plans = {plan.name: plan for plan in bundle.queries}
        if pooled and token is None:
            # A batch-internal token (flag-only checks) when ungoverned,
            # so first-failure propagation can always cancel the DAG.
            from ..serve.governor import CancellationToken

            token = CancellationToken()

        def run(task: TaskSpec) -> _TaskOutcome:
            ctx = ExecutionContext(
                database=self.database,
                cost_model=self.cost_model,
                spools=state.spools,
                registry=self.registry,
                op_stats={} if collect_op_stats else None,
                token=token,
                tracer=self.tracer,
                spool_spans=state.spool_spans,
                scans=state.scans,
                morsel_rows=self.morsel_rows,
            )
            if task.kind == "query":
                return ctx, self._execute_query(query_plans[task.label], ctx)
            if task.kind == "scan":
                # Prewarm one shared (table, columns) group; consumers
                # (which depend on this task) alias the cached arrays.
                # The fetch charge lands in this task's metrics — totals
                # still merge deterministically because the manager's
                # locks make the charge exactly-once batch-wide.
                assert ctx.scans is not None and task.scan is not None
                physical, names = task.scan
                ctx.scans.prewarm(physical, frozenset(names), ctx)
            else:
                # Publishing the finished table is the consumers' latch:
                # their tasks only start after this one completes — and
                # it happens only after every budget charge passed, so a
                # cancelled task never leaves a partial spool in the
                # shared map.
                state.spools[task.label] = materialize_spool(
                    task.label, spool_bodies[task.label], ctx
                )
            return ctx, None

        selected_queries = sum(task.kind == "query" for task in tasks)
        with self.tracer.span(
            "execute_batch", queries=selected_queries, workers=self.workers
        ):
            if pooled:
                outcomes = self._run_pooled(tasks, run, token)
            else:
                outcomes = {task.index: run(task) for task in tasks}
        metrics = ExecutionMetrics()
        op_stats: Optional[Dict[int, OperatorStats]] = (
            {} if collect_op_stats else None
        )
        results: List[QueryResult] = []
        executed_plans: Dict[str, PhysicalPlan] = {}
        # Merge in schedule order == serial accumulation order.
        for task in tasks:
            ctx, answer = outcomes[task.index]
            metrics.merge(ctx.metrics)
            for node_id, stats in (ctx.op_stats or {}).items():
                op_stats.setdefault(node_id, OperatorStats()).merge(stats)
            if answer is not None:
                results.append(answer[0])
                executed_plans[task.label] = answer[1]
        wall = time.perf_counter() - start
        metrics.publish(self.registry)
        self.registry.timer_add("executor.wall", wall)
        if pooled:
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

    def _run_pooled(
        self,
        tasks: List[TaskSpec],
        run: Callable[[TaskSpec], _TaskOutcome],
        token: "CancellationToken",
    ) -> Dict[int, _TaskOutcome]:
        """Topological wave scheduling with bounded workers."""
        # The batch span, captured while open: every task carries it in
        # its spec and re-attaches it on the worker thread
        # (Tracer.attach), so no worker-side span is orphaned from the
        # batch root.
        batch_context = self.tracer.current_context()
        by_index = {
            task.index: replace(task, span_context=batch_context)
            for task in tasks
        }
        outcomes: Dict[int, _TaskOutcome] = {}
        # Dependencies outside the selection are already satisfied (a
        # spool the caller passed in with the state).
        waiting = {
            task.index: {dep for dep in task.deps if dep in by_index}
            for task in tasks
        }
        dependents: Dict[int, List[int]] = {}
        for index, deps in waiting.items():
            for dep in deps:
                dependents.setdefault(dep, []).append(index)
        failure: Optional[BaseException] = None
        with ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-worker"
        ) as pool:
            running: Dict[Future, int] = {}

            def submit(index: int) -> None:
                future = pool.submit(self._run_task, by_index[index], run)
                running[future] = index

            for index, deps in waiting.items():
                if not deps:
                    submit(index)
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
                        pending = waiting[dependent]
                        pending.discard(index)
                        if not pending:
                            submit(dependent)
        if failure is not None:
            raise failure
        if len(outcomes) != len(tasks):
            unfinished = sorted(
                task.label for task in tasks if task.index not in outcomes
            )
            raise ExecutionError(
                f"schedule deadlock; unfinished tasks: {unfinished}"
            )
        return outcomes

    def _run_task(
        self, task: TaskSpec, run: Callable[[TaskSpec], _TaskOutcome]
    ) -> _TaskOutcome:
        """One pooled task, on a worker thread: span, body, latency."""
        start = time.perf_counter()
        outcome = "ok"
        try:
            # Re-establish the batch span on this worker thread, then open
            # the task's own span under it: all the executor spans below
            # (spool_materialize / query / op:*) chain up to the batch root.
            with self.tracer.attach(task.span_context), self.tracer.span(
                "task", kind=task.kind, label=task.label
            ):
                return run(task)
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

    # ------------------------------------------------------------------

    def _execute_query(
        self, query_plan: QueryPlan, ctx: ExecutionContext
    ) -> Tuple[QueryResult, PhysicalPlan]:
        with ctx.tracer.span("query", name=query_plan.name):
            scalars: Dict[Expr, Expr] = {}
            for sid, sub_plan in query_plan.subquery_plans.items():
                value, data_type = self._execute_scalar(sub_plan, ctx)
                scalars[ScalarSubquery(sid)] = Literal(value, data_type)
            plan = query_plan.plan
            if scalars:
                plan = bind_scalars(plan, scalars)
            names, columns = self._run_named(plan, ctx)
            rows = (
                list(zip(*[c.tolist() for c in columns])) if columns else []
            )
            ctx.metrics.rows_output += len(rows)
            return QueryResult(query_plan.name, names, rows), plan

    def _execute_scalar(
        self, plan: PhysicalPlan, ctx: ExecutionContext
    ) -> Tuple[Any, Any]:
        names, columns = self._run_named(plan, ctx)
        if len(columns) != 1:
            raise ExecutionError(
                f"scalar subquery produced {len(columns)} columns"
            )
        column = columns[0]
        if len(column) != 1:
            raise ExecutionError(
                f"scalar subquery produced {len(column)} rows"
            )
        value = column[0]
        if isinstance(value, np.generic):
            value = value.item()
        return value, literal_type(value)

    def _run_named(
        self, plan: PhysicalPlan, ctx: ExecutionContext
    ) -> Tuple[List[str], List[np.ndarray]]:
        """Evaluate a finalized plan ([Sort] → Project → …) to named columns."""
        sort_items = None
        node = plan
        spool_defs: List[PhysSpoolDef] = []
        while isinstance(node, (PhysSort, PhysSpoolDef)):
            if isinstance(node, PhysSort):
                sort_items = node.sort_items
                node = node.child
            else:
                spool_defs.append(node)
                node = node.child
        for spool_def in spool_defs:
            for cse_id, body in spool_def.spools:
                if cse_id not in ctx.spools:
                    ctx.spools[cse_id] = materialize_spool(cse_id, body, ctx)
        if not isinstance(node, PhysProject):
            raise ExecutionError("finalized plan must end in a projection")
        start = time.perf_counter()
        frame = execute_node(node.child, ctx)
        ctx.metrics.cost_units += ctx.cost_model.project(
            frame_length(frame), len(node.outputs)
        )
        names = [out.name for out in node.outputs]
        columns = [evaluate(out.expr, frame) for out in node.outputs]
        if sort_items:
            ctx.metrics.cost_units += ctx.cost_model.sort(frame_length(frame))
            order = sort_order_for(sort_items, frame)
            columns = [c[order] for c in columns]
        # The one place codes become strings again (a literal output may
        # never have been pooled, so it is filled in from its own value).
        for position, out in enumerate(node.outputs):
            if out.expr.data_type is DataType.STRING:
                columns[position] = (
                    np.full(len(columns[position]), out.expr.value)
                    if isinstance(out.expr, Literal)
                    else string_pool.decode(columns[position])
                )
        if ctx.op_stats is not None:
            # The finalization chain (Project, Sort, SpoolDef) bypasses
            # execute_node; record its nodes so analyze output is complete.
            rows = len(columns[0]) if columns else 0
            elapsed = time.perf_counter() - start
            for top_node in _finalizer_chain(plan, node):
                stats = ctx.stats_for(top_node)
                stats.invocations += 1
                stats.rows_out += rows
                stats.wall_time += elapsed
                stats.add_timer("finalize", elapsed)
        return names, columns


def _finalizer_chain(
    plan: PhysicalPlan, project: PhysicalPlan
) -> List[PhysicalPlan]:
    """The wrapper nodes from a finalized plan's top down to its projection
    (Sort/SpoolDef then Project) — the nodes `_run_named` evaluates itself."""
    chain: List[PhysicalPlan] = []
    node = plan
    while node is not project and isinstance(node, (PhysSort, PhysSpoolDef)):
        chain.append(node)
        node = node.child
    chain.append(project)
    return chain


# ---------------------------------------------------------------------------
# Scalar-subquery binding: rebuild plans with substituted expressions
# ---------------------------------------------------------------------------


def _sub(expr: Expr, mapping: Dict[Expr, Expr]) -> Expr:
    return expr.substitute(mapping)


def _sub_all(exprs, mapping):
    return tuple(_sub(e, mapping) for e in exprs)


def bind_scalars(plan: PhysicalPlan, mapping: Dict[Expr, Expr]) -> PhysicalPlan:
    """A copy of ``plan`` with every :class:`ScalarSubquery` replaced by its
    computed constant."""
    if isinstance(plan, PhysScan):
        return PhysScan(
            table_ref=plan.table_ref,
            conjuncts=_sub_all(plan.conjuncts, mapping),
            outputs=plan.outputs,
            est_rows=plan.est_rows,
        )
    if isinstance(plan, PhysIndexScan):
        return PhysIndexScan(
            table_ref=plan.table_ref,
            column=plan.column,
            low=plan.low,
            high=plan.high,
            low_inclusive=plan.low_inclusive,
            high_inclusive=plan.high_inclusive,
            residual=_sub_all(plan.residual, mapping),
            outputs=plan.outputs,
            est_rows=plan.est_rows,
        )
    if isinstance(plan, PhysHashJoin):
        return PhysHashJoin(
            left=bind_scalars(plan.left, mapping),
            right=bind_scalars(plan.right, mapping),
            keys=plan.keys,
            residual=_sub_all(plan.residual, mapping),
            outputs=plan.outputs,
            est_rows=plan.est_rows,
            join_type=plan.join_type,
        )
    if isinstance(plan, PhysHashAgg):
        computes = tuple(
            AggCompute(
                out=c.out,
                func=c.func,
                arg=None if c.arg is None else _sub(c.arg, mapping),
            )
            for c in plan.computes
        )
        return PhysHashAgg(
            child=bind_scalars(plan.child, mapping),
            keys=plan.keys,
            computes=computes,
            est_rows=plan.est_rows,
        )
    if isinstance(plan, PhysFilter):
        return PhysFilter(
            child=bind_scalars(plan.child, mapping),
            conjuncts=_sub_all(plan.conjuncts, mapping),
            est_rows=plan.est_rows,
        )
    if isinstance(plan, PhysProject):
        from ..logical.blocks import OutputColumn

        outputs = tuple(
            OutputColumn(name=o.name, expr=_sub(o.expr, mapping))
            for o in plan.outputs
        )
        return PhysProject(
            child=bind_scalars(plan.child, mapping),
            outputs=outputs,
            est_rows=plan.est_rows,
        )
    if isinstance(plan, PhysSort):
        items = tuple((_sub(e, mapping), d) for e, d in plan.sort_items)
        return PhysSort(
            child=bind_scalars(plan.child, mapping),
            sort_items=items,
            est_rows=plan.est_rows,
        )
    if isinstance(plan, PhysSpoolRead):
        return plan
    if isinstance(plan, PhysFusedPipeline):
        return PhysFusedPipeline(
            source=bind_scalars(plan.source, mapping),
            stages=tuple(
                FusedStage(
                    kind=s.kind,
                    exprs=_sub_all(s.exprs, mapping),
                    est_rows=s.est_rows,
                )
                for s in plan.stages
            ),
            est_rows=plan.est_rows,
        )
    if isinstance(plan, PhysSpoolDef):
        return PhysSpoolDef(
            spools=tuple(
                (cid, bind_scalars(body, mapping)) for cid, body in plan.spools
            ),
            child=bind_scalars(plan.child, mapping),
            est_rows=plan.est_rows,
        )
    raise ExecutionError(f"cannot bind scalars in {type(plan).__name__}")
