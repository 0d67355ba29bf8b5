"""Cost-annotated EXPLAIN and EXPLAIN ANALYZE output.

Every physical node carries ``est_cost``, the cost the search charged for
the node's whole subtree, set where the search built it. EXPLAIN prints that
total per operator beside its local share, ``est_cost`` minus the children's
``est_cost``, and prices nothing itself: the numbers match what the
optimizer charged by construction. A ``SpoolDef``'s local share is the write
cost ``C_W`` of the spools it defines, a ``SpoolRead``'s the candidate's read
cost ``C_R``. A root spool's ``C_W`` is a bundle-level term, so the spool
bodies, their ``C_W`` and the query plans add up to the bundle's cost.

EXPLAIN ANALYZE (:func:`render_analyzed_bundle`) renders a bundle that was
*executed* with per-operator stat collection: every operator is annotated
with actual rows and wall time alongside the estimates, followed by the
sharing ledger (Definition 5.1's split per spool, initial cost ``C_E + C_W``
charged once vs. usage cost ``C_R`` per read, estimated and measured) and
the optimizer's runtime counters (candidates generated, pruned per
heuristic, CSEs kept).
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Tuple

from ..obs import render_ledger
from .physical import PhysicalPlan, PlanBundle, QueryPlan


def local_cost(node: PhysicalPlan) -> float:
    """What the search charged for ``node`` itself, children excluded."""
    return node.est_cost - sum(child.est_cost for child in node.children())


def _sections(
    bundle: PlanBundle, plan_of: Callable[[QueryPlan], PhysicalPlan]
) -> Iterator[Tuple[str, PhysicalPlan]]:
    """``(title, plan)`` per rendered section: root spools first, then each
    query's scalar subqueries and the query itself."""
    for cse_id, body in bundle.root_spools:
        yield f"Spool {cse_id}:", body
    for query in bundle.queries:
        for sid, sub in query.subquery_plans.items():
            yield f"{query.name} subquery {sid}:", sub
        yield f"{query.name}:", plan_of(query)


def _render(
    plan: PhysicalPlan, annotate: Callable[[PhysicalPlan], str], indent: int = 1
) -> List[str]:
    lines = ["  " * indent + plan._describe_line() + "  " + annotate(plan)]
    for child in plan.children():
        lines.extend(_render(child, annotate, indent + 1))
    return lines


def _cost_note(node: PhysicalPlan) -> str:
    return f"[local {local_cost(node):.2f}, total {node.est_cost:.2f}]"


def explain_with_costs(bundle: PlanBundle) -> str:
    """Annotated EXPLAIN for an optimized bundle."""
    parts = [f"estimated bundle cost: {bundle.est_cost:.2f}"]
    for title, plan in _sections(bundle, lambda query: query.plan):
        parts.append(title)
        parts.extend(_render(plan, _cost_note))
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# EXPLAIN ANALYZE
# ---------------------------------------------------------------------------


def _fmt_ms(seconds: float) -> str:
    return f"{seconds * 1000.0:.2f}ms"


def _optimizer_counters(result) -> List[str]:
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


def render_analyzed_bundle(result, execution, ledger=None) -> str:
    """The EXPLAIN ANALYZE report for a bundle that *already executed*
    (with ``collect_op_stats=True``): each operator with estimated *and*
    actual rows/time, the sharing ledger, and the optimizer's counters.
    ``Session.explain(analyze=True)`` executes and renders; the slow-query
    log renders the run it just measured instead of re-executing the
    batch."""
    bundle = result.bundle

    def annotate(node: PhysicalPlan) -> str:
        stats = execution.stats_for(node)
        if stats is None:
            actual = "actual: never executed"
        else:
            actual = (
                f"actual rows={stats.rows_out} time={_fmt_ms(stats.wall_time)}"
            )
        return (
            f"[est cost {node.est_cost:.2f}, "
            f"est rows {node.est_rows:.0f}; {actual}]"
        )

    parts: List[str] = [
        "EXPLAIN ANALYZE",
        (
            f"estimated bundle cost: {bundle.est_cost:.2f}; "
            f"measured {execution.metrics.cost_units:.2f} cost units; "
            f"wall {_fmt_ms(execution.wall_time)}"
        ),
    ]
    executed = execution.executed_plans
    for title, plan in _sections(
        bundle, lambda query: executed.get(query.name, query.plan)
    ):
        parts.append(title)
        parts.extend(_render(plan, annotate))
    if ledger is not None and (ledger["spools"] or ledger["scans"]):
        # The sharing-economics ledger, rendered from the same rounded
        # record the query log and ledger.* gauges carry.
        parts.append("")
        parts.append(render_ledger(ledger))
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
        scans = metrics.scan_stats.values()
        parts.append(
            "Shared scans: "
            f"{sum(s.physical_scans for s in scans)} physical over "
            f"{sum(s.reads for s in scans)} consumer reads "
            f"({sum(s.shared for s in scans)} shared, "
            f"rows saved {sum(s.rows_saved for s in scans)})"
        )
    return "\n".join(parts)
