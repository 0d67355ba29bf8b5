"""Execution of optimized plan bundles.

Evaluation order: shared (root-level) spools in dependency order, then for
each query its scalar subqueries, then the main plan with subquery results
bound as constants. Per-query results and batch-wide metrics are returned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

import numpy as np

from ..errors import ExecutionError
from ..expr.evaluator import Frame, evaluate, frame_length
from ..expr.expressions import Expr, Literal
from ..logical.blocks import ScalarSubquery
from ..obs import NULL_REGISTRY, NULL_TRACER, MetricsRegistry, OperatorStats, Tracer
from ..optimizer.cost import CostModel
from ..optimizer.engine import PlanBundle, QueryPlan
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
)
from ..optimizer.aggs import AggCompute
from ..storage.database import Database
from .iterators import execute_node, materialize_spool, sort_order_for
from .runtime import ExecutionContext, ExecutionMetrics
from .scans import ScanManager

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
    ) -> None:
        self.database = database
        self.cost_model = cost_model or CostModel()
        self.registry = registry or NULL_REGISTRY
        self.tracer = tracer or NULL_TRACER
        #: engine v2: one physical scan per (table, column-set) per batch.
        self.shared_scans = shared_scans
        #: morsel size for fused streaming pipelines.
        self.morsel_rows = morsel_rows

    def execute(
        self,
        bundle: PlanBundle,
        collect_op_stats: bool = False,
        token: Optional["CancellationToken"] = None,
    ) -> BatchResult:
        """Execute a bundle: spools, subqueries, then each query.

        With ``collect_op_stats=True`` the result carries per-operator
        actuals (rows, wall time) for EXPLAIN ANALYZE rendering. ``token``
        (a :class:`~repro.serve.governor.CancellationToken`) arms the
        cooperative deadline/budget checkpoints in the operator loop."""
        start = time.perf_counter()
        ctx = ExecutionContext(
            database=self.database,
            cost_model=self.cost_model,
            registry=self.registry,
            op_stats={} if collect_op_stats else None,
            token=token,
            tracer=self.tracer,
            scans=ScanManager() if self.shared_scans else None,
            morsel_rows=self.morsel_rows,
        )
        executed_plans: Dict[str, PhysicalPlan] = {}
        results: List[QueryResult] = []
        with self.tracer.span(
            "execute_batch", queries=len(bundle.queries), workers=1
        ):
            for cse_id, body in bundle.root_spools:
                if cse_id not in ctx.spools:
                    ctx.spools[cse_id] = materialize_spool(cse_id, body, ctx)
            for query_plan in bundle.queries:
                result, plan = self._execute_query(query_plan, ctx)
                results.append(result)
                executed_plans[query_plan.name] = plan
        wall = time.perf_counter() - start
        ctx.metrics.publish(self.registry)
        self.registry.timer_add("executor.wall", wall)
        return BatchResult(
            results=results,
            metrics=ctx.metrics,
            wall_time=wall,
            op_stats=ctx.op_stats,
            executed_plans=executed_plans,
        )

    # ------------------------------------------------------------------

    def _execute_query(
        self, query_plan: QueryPlan, ctx: ExecutionContext
    ) -> Tuple[QueryResult, PhysicalPlan]:
        with ctx.tracer.span("query", name=query_plan.name):
            return self._execute_query_inner(query_plan, ctx)

    def _execute_query_inner(
        self, query_plan: QueryPlan, ctx: ExecutionContext
    ) -> Tuple[QueryResult, PhysicalPlan]:
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
        return QueryResult(name=query_plan.name, columns=names, rows=rows), plan

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
        from ..types import literal_type

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
