"""Pipeline fusion: collapse scan→filter→project chains for streaming.

A post-pass over the finalized :class:`PlanBundle`. Maximal chains of
``PhysFilter`` / interior ``PhysProject`` nodes whose leaf is a
``PhysScan`` or ``PhysSpoolRead`` are replaced by one
:class:`PhysFusedPipeline` node; the executor then streams fixed-size
columnar morsels through the chain instead of materializing one whole
frame per operator, and the governor's row/deadline checks fire per
morsel instead of per operator.

The pass is purely structural: the leaf keeps its pushed-down conjuncts,
every stage keeps its original cardinality estimate (so explain-cost
annotation is unchanged), and bundle costs are not touched. The
finalizing top projection of a query or spool body is *not* fused — the
executor's run loop requires it (`"finalized plan must end in a
projection"`) and its cost is charged by the finalizer, not the tree.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .physical import (
    FusedStage,
    PhysFilter,
    PhysFusedPipeline,
    PhysHashAgg,
    PhysHashJoin,
    PhysProject,
    PhysScan,
    PhysSort,
    PhysSpoolDef,
    PhysSpoolRead,
    PhysicalPlan,
    PlanBundle,
    QueryPlan,
)


def fuse_bundle(bundle: PlanBundle) -> PlanBundle:
    """Return a bundle with eligible chains fused (may share subtrees)."""
    spools = tuple(
        (cse_id, _fuse_finalized(body)) for cse_id, body in bundle.root_spools
    )
    queries = [
        QueryPlan(
            name=q.name,
            plan=_fuse_finalized(q.plan),
            subquery_plans={
                sid: _fuse_finalized(plan)
                for sid, plan in q.subquery_plans.items()
            },
            output_names=list(q.output_names),
        )
        for q in bundle.queries
    ]
    return PlanBundle(
        root_spools=spools, queries=queries, est_cost=bundle.est_cost
    )


def _fuse_finalized(plan: PhysicalPlan) -> PhysicalPlan:
    """Fuse below a finalized plan, keeping its Sort/SpoolDef/Project top."""
    if isinstance(plan, PhysSort):
        return PhysSort(
            child=_fuse_finalized(plan.child),
            sort_items=plan.sort_items,
            est_rows=plan.est_rows,
        )
    if isinstance(plan, PhysSpoolDef):
        return PhysSpoolDef(
            spools=tuple(
                (cid, _fuse_finalized(body)) for cid, body in plan.spools
            ),
            child=_fuse_finalized(plan.child),
            est_rows=plan.est_rows,
        )
    if isinstance(plan, PhysProject):
        # The finalizing projection stays; fuse the tree underneath it.
        return PhysProject(
            child=_fuse_interior(plan.child),
            outputs=plan.outputs,
            est_rows=plan.est_rows,
        )
    return _fuse_interior(plan)


def _fuse_interior(plan: PhysicalPlan) -> PhysicalPlan:
    """Fuse chains anywhere inside an operator tree."""
    fused = _try_fuse_chain(plan)
    if fused is not None:
        return fused
    if isinstance(plan, PhysHashJoin):
        return PhysHashJoin(
            left=_fuse_interior(plan.left),
            right=_fuse_interior(plan.right),
            keys=plan.keys,
            residual=plan.residual,
            outputs=plan.outputs,
            est_rows=plan.est_rows,
            join_type=plan.join_type,
        )
    if isinstance(plan, PhysHashAgg):
        return PhysHashAgg(
            child=_fuse_interior(plan.child),
            keys=plan.keys,
            computes=plan.computes,
            est_rows=plan.est_rows,
        )
    if isinstance(plan, PhysFilter):
        return PhysFilter(
            child=_fuse_interior(plan.child),
            conjuncts=plan.conjuncts,
            est_rows=plan.est_rows,
        )
    if isinstance(plan, PhysProject):
        return PhysProject(
            child=_fuse_interior(plan.child),
            outputs=plan.outputs,
            est_rows=plan.est_rows,
        )
    if isinstance(plan, PhysSort):
        return PhysSort(
            child=_fuse_interior(plan.child),
            sort_items=plan.sort_items,
            est_rows=plan.est_rows,
        )
    if isinstance(plan, PhysSpoolDef):
        return PhysSpoolDef(
            spools=tuple(
                (cid, _fuse_finalized(body)) for cid, body in plan.spools
            ),
            child=_fuse_interior(plan.child),
            est_rows=plan.est_rows,
        )
    # Leaves (PhysScan without fusable wrapper, PhysIndexScan,
    # PhysSpoolRead) and anything unknown stay as-is.
    return plan


def _try_fuse_chain(plan: PhysicalPlan) -> Optional[PhysicalPlan]:
    """Collapse a maximal Filter/Project chain over a Scan/SpoolRead leaf.

    Returns None when ``plan`` does not head an eligible chain. A bare
    filtered scan fuses with zero stages (the streaming loop applies its
    pushed-down conjuncts morsel-wise); a bare conjunct-free scan or bare
    spool read gains nothing from streaming and stays unchanged.
    """
    stages: List[FusedStage] = []
    node = plan
    while True:
        if isinstance(node, PhysFilter):
            stages.append(
                FusedStage(
                    kind="filter",
                    exprs=node.conjuncts,
                    est_rows=node.est_rows,
                )
            )
            node = node.child
        elif isinstance(node, PhysProject):
            stages.append(
                FusedStage(
                    kind="project",
                    exprs=tuple(o.expr for o in node.outputs),
                    est_rows=node.est_rows,
                )
            )
            node = node.child
        elif isinstance(node, (PhysScan, PhysSpoolRead)):
            if not stages and not (
                isinstance(node, PhysScan) and node.conjuncts
            ):
                return None
            return PhysFusedPipeline(
                source=node,
                stages=tuple(reversed(stages)),
                est_rows=plan.est_rows,
            )
        else:
            return None
