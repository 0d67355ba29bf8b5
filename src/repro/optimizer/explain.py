"""Cost-annotated EXPLAIN and EXPLAIN ANALYZE output.

Plain EXPLAIN reconstructs per-operator cost estimates for a physical plan
from the cost model and each node's estimated cardinalities, and renders an
annotated tree. The numbers match what the optimizer charged during search
(the same formulas over the same cardinalities), so the annotated total of
a query plan equals its winner cost up to the fixed finalization terms.

EXPLAIN ANALYZE (:func:`render_analyzed_bundle`) renders a bundle that was
*executed* with per-operator stat collection: every operator is annotated
with actual rows and wall time alongside the estimates, followed by the
Definition 5.1 cost split per spool (initial cost ``C_E + C_W`` charged
once vs. usage cost ``C_R`` per read) and the optimizer's runtime counters
(candidates generated, pruned per heuristic, CSEs kept).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..storage.database import Database
from .cost import CostModel
from .engine import OptimizationResult
from .physical import (
    PhysFilter,
    PhysHashAgg,
    PhysHashJoin,
    PhysIdentityAgg,
    PhysIndexScan,
    PhysProject,
    PhysScan,
    PhysSort,
    PhysSpoolDef,
    PhysSpoolRead,
    PhysicalPlan,
    PlanBundle,
)


@dataclass
class AnnotatedNode:
    """One operator with its local and cumulative estimated cost."""

    plan: PhysicalPlan
    local_cost: float
    total_cost: float
    children: List["AnnotatedNode"]

    def render(self, indent: int = 0) -> str:
        """Indented text rendering with cost annotations."""
        line = (
            "  " * indent
            + f"{self.plan._describe_line()}"
            + f"  [local {self.local_cost:.2f}, total {self.total_cost:.2f}]"
        )
        parts = [line]
        for child in self.children:
            parts.append(child.render(indent + 1))
        return "\n".join(parts)


class PlanAnnotator:
    """Computes per-node cost annotations for physical plans."""

    def __init__(
        self, database: Database, cost_model: Optional[CostModel] = None
    ) -> None:
        self.database = database
        self.cost_model = cost_model or CostModel()
        self._spool_stats: dict = {}

    # ------------------------------------------------------------------

    def annotate(self, plan: PhysicalPlan) -> AnnotatedNode:
        """Annotate one plan tree bottom-up."""
        children = [self.annotate(child) for child in plan.children()]
        local = self._local_cost(plan)
        total = local + sum(child.total_cost for child in children)
        return AnnotatedNode(
            plan=plan, local_cost=local, total_cost=total, children=children
        )

    def annotate_bundle(self, bundle: PlanBundle) -> str:
        """Annotated text for a whole bundle (spools first)."""
        parts: List[str] = []
        for cse_id, body in bundle.root_spools:
            node = self.annotate(body)
            self._remember_spool(cse_id, body)
            parts.append(f"Spool {cse_id}:")
            parts.append(node.render(1))
        for query in bundle.queries:
            for sid, sub in query.subquery_plans.items():
                parts.append(f"{query.name} subquery {sid}:")
                parts.append(self.annotate(sub).render(1))
            parts.append(f"{query.name}:")
            parts.append(self.annotate(query.plan).render(1))
        return "\n".join(parts)

    def _remember_spool(self, cse_id: str, body: PhysicalPlan) -> None:
        if isinstance(body, PhysProject):
            rows = body.est_rows
            width = sum(
                o.expr.data_type.byte_width for o in body.outputs
            )
            self._spool_stats[cse_id] = (rows, width)

    # ------------------------------------------------------------------

    def _local_cost(self, plan: PhysicalPlan) -> float:
        model = self.cost_model
        if isinstance(plan, PhysScan):
            table = self.database.table(plan.table_ref.physical_name)
            return model.scan(
                table.row_count, table.row_width(), len(plan.conjuncts)
            )
        if isinstance(plan, PhysIndexScan):
            table = self.database.table(plan.table_ref.physical_name)
            return model.index_scan(
                plan.est_rows, table.row_width(), len(plan.residual)
            )
        if isinstance(plan, PhysHashJoin):
            left_rows = plan.left.est_rows
            right_rows = plan.right.est_rows
            if plan.keys:
                return model.hash_join(
                    min(left_rows, right_rows),
                    max(left_rows, right_rows),
                    plan.est_rows,
                    len(plan.residual),
                )
            return model.cross_join(left_rows, right_rows, plan.est_rows)
        if isinstance(plan, PhysIdentityAgg):
            return model.project(plan.child.est_rows, len(plan.outputs))
        if isinstance(plan, PhysHashAgg):
            return model.aggregate(
                plan.child.est_rows, plan.est_rows, len(plan.computes)
            )
        if isinstance(plan, PhysFilter):
            return model.filter(plan.child.est_rows, len(plan.conjuncts))
        if isinstance(plan, PhysProject):
            return model.project(plan.child.est_rows, len(plan.outputs))
        if isinstance(plan, PhysSort):
            return model.sort(plan.child.est_rows)
        if isinstance(plan, PhysSpoolRead):
            rows, width = self._spool_stats.get(
                plan.cse_id, (plan.est_rows, 8)
            )
            return model.spool_read(rows, width)
        if isinstance(plan, PhysSpoolDef):
            # Write costs for the spools it defines (bodies annotated as
            # children).
            total = 0.0
            for cse_id, body in plan.spools:
                self._remember_spool(cse_id, body)
                rows, width = self._spool_stats.get(cse_id, (0.0, 8))
                total += model.spool_write(rows, width)
            return total
        return 0.0


def explain_with_costs(
    database: Database,
    bundle: PlanBundle,
    cost_model: Optional[CostModel] = None,
) -> str:
    """Annotated EXPLAIN for an optimized bundle."""
    annotator = PlanAnnotator(database, cost_model)
    header = f"estimated bundle cost: {bundle.est_cost:.2f}"
    return header + "\n" + annotator.annotate_bundle(bundle)


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE
# ---------------------------------------------------------------------------


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1000.0:.2f}ms"


def _render_analyzed(node: AnnotatedNode, execution, indent: int) -> List[str]:
    """Render one annotated subtree with actual rows/time per operator."""
    stats = execution.stats_for(node.plan)
    if stats is None:
        actual = "actual: never executed"
    else:
        actual = (
            f"actual rows={stats.rows_out} time={_fmt_ms(stats.wall_time)}"
        )
    line = (
        "  " * indent
        + node.plan._describe_line()
        + f"  [est cost {node.total_cost:.2f}, "
        + f"est rows {node.plan.est_rows:.0f}; {actual}]"
    )
    lines = [line]
    for child in node.children:
        lines.extend(_render_analyzed(child, execution, indent + 1))
    return lines


def _spool_attribution(
    result: OptimizationResult, execution
) -> List[str]:
    """Definition 5.1's cost split, estimated vs. measured, per spool."""
    spool_stats = execution.metrics.spool_stats
    if not spool_stats:
        return []
    by_id = {c.cse_id: c for c in result.candidates}
    lines = ["Spool cost attribution (Def 5.1):"]
    for cse_id in sorted(spool_stats):
        stats = spool_stats[cse_id]
        candidate = by_id.get(cse_id)
        if candidate is not None:
            est_initial = (
                f"est C_E {candidate.body_cost:.2f} + "
                f"C_W {candidate.write_cost:.2f} = "
                f"{candidate.initial_cost:.2f}"
            )
            est_usage = (
                f"est C_R {candidate.read_cost:.2f} x {stats.reads} reads = "
                f"{candidate.read_cost * stats.reads:.2f}"
            )
        else:
            est_initial = "est n/a"
            est_usage = "est n/a"
        lines.append(
            f"  {cse_id}: initial ({est_initial}; "
            f"actual {stats.write_cost_units:.2f} units, "
            f"{stats.writes} materialization(s), {stats.rows_written} rows, "
            f"{_fmt_ms(stats.materialize_wall_time)})"
        )
        lines.append(
            f"      usage ({est_usage}; "
            f"actual {stats.read_cost_units:.2f} units over "
            f"{stats.reads} read(s), rows/read "
            f"{stats.read_row_counts})"
        )
    return lines


def _optimizer_counters(result: OptimizationResult) -> List[str]:
    stats = result.stats
    pruned = stats.pruned_per_heuristic()
    return [
        "Optimizer counters:",
        (
            f"  memo groups {stats.memo_groups}; "
            f"signature registrations {stats.signature_registrations}; "
            f"sharable buckets {stats.sharable_buckets}"
        ),
        (
            f"  candidates generated {stats.candidates_generated} "
            f"(before pruning {stats.candidates_before_pruning}; "
            f"pruned H1 {pruned['H1']}, H2 {pruned['H2']}, "
            f"H3 {pruned['H3']}, H4 {pruned['H4']})"
        ),
        (
            f"  cse passes {stats.cse_optimizations}; "
            f"single-consumer discards {stats.single_consumer_discards}; "
            f"CSEs kept: {stats.used_cses or 'none'}"
        ),
        (
            f"  optimization time {_fmt_ms(stats.optimization_time)} "
            f"(normal {_fmt_ms(stats.normal_time)}, "
            f"cse {_fmt_ms(stats.cse_time)})"
        ),
    ]


def render_analyzed_bundle(
    database: Database,
    result: OptimizationResult,
    execution,
    cost_model: Optional[CostModel] = None,
    ledger=None,
) -> str:
    """The EXPLAIN ANALYZE report for a bundle that *already executed*
    (with ``collect_op_stats=True``): each operator with estimated *and*
    actual rows/time, spool cost attribution, and the optimizer's
    counters. ``Session.explain(analyze=True)`` executes and renders; the
    slow-query log renders the run it just measured instead of
    re-executing the batch."""
    bundle = result.bundle
    annotator = PlanAnnotator(database, cost_model)

    parts: List[str] = [
        "EXPLAIN ANALYZE",
        (
            f"estimated bundle cost: {bundle.est_cost:.2f}; "
            f"measured {execution.metrics.cost_units:.2f} cost units; "
            f"wall {_fmt_ms(execution.wall_time)}"
        ),
    ]
    for cse_id, body in bundle.root_spools:
        annotator._remember_spool(cse_id, body)
        parts.append(f"Spool {cse_id}:")
        parts.extend(_render_analyzed(annotator.annotate(body), execution, 1))
    for query in bundle.queries:
        for sid, sub in query.subquery_plans.items():
            parts.append(f"{query.name} subquery {sid}:")
            parts.extend(
                _render_analyzed(annotator.annotate(sub), execution, 1)
            )
        executed = execution.executed_plans.get(query.name, query.plan)
        parts.append(f"{query.name}:")
        parts.extend(
            _render_analyzed(annotator.annotate(executed), execution, 1)
        )
    attribution = _spool_attribution(result, execution)
    if attribution:
        parts.append("")
        parts.extend(attribution)
    if ledger is not None and (ledger.spools or ledger.scans):
        # The sharing-economics ledger, rendered from the same rounded
        # payload the query log and ledger.* gauges carry.
        parts.append("")
        parts.append(ledger.render())
    parts.append("")
    parts.extend(_optimizer_counters(result))
    metrics = execution.metrics
    parts.append("")
    parts.append(
        "Execution totals: "
        f"{metrics.cost_units:.2f} cost units; "
        f"rows scanned {metrics.rows_scanned}; "
        f"spools materialized {metrics.spools_materialized} "
        f"(rows written {metrics.spool_rows_written}, "
        f"rows read {metrics.spool_rows_read})"
    )
    if metrics.scan_stats:
        reads = sum(s.reads for s in metrics.scan_stats.values())
        physical = sum(
            s.physical_scans for s in metrics.scan_stats.values()
        )
        shared = sum(s.shared for s in metrics.scan_stats.values())
        rows_saved = sum(
            s.rows_saved for s in metrics.scan_stats.values()
        )
        parts.append(
            "Shared scans: "
            f"{physical} physical over {reads} consumer reads "
            f"({shared} shared, rows saved {rows_saved})"
        )
    return "\n".join(parts)
