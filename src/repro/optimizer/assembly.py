"""Root assembly: fold the per-top plan sets into one batch plan.

Every query and scalar-subquery top is optimized under the pass's context
and the plan sets are folded left to right. The batch root is the least
common ancestor of every candidate settled there — cross-query ones and
those consumed inside other candidates' bodies (stacked CSEs, §5.5) — so
the fold settles each with the rule every inner LCA uses (§5.2,
:meth:`~repro.optimizer.search.Search.settle`): right after the last top
that can read it, once every root candidate whose body can read it is
settled. A plan that reads it once is discarded, one that reads it twice or
more pays one of its body plans plus ``C_W``. After the last top only the
plan with no open spool is valid; it becomes a
:class:`~repro.optimizer.physical.PlanBundle`.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, List, Set, Tuple

from ..cse.candidates import CandidateCse
from ..errors import OptimizerError
from . import search as search_module
from .memo import Group
from .physical import (
    PhysSpoolDef,
    PhysSpoolRead,
    PhysicalPlan,
    PlanBundle,
    QueryPlan,
)
from .search import Search
from .state import EMPTY_PROFILE, OptimizerRun, PassContext, Profile

#: (total cost, per-top plans, root spools)
_Assembly = Tuple[
    float, Tuple[PhysicalPlan, ...], Tuple[Tuple[str, PhysicalPlan], ...]
]
#: a root CSE's body choices: (profile, cost incl. C_W, body plan).
_BodyOptions = List[Tuple[Profile, float, PhysicalPlan]]


def assemble(search: Search, ctx: PassContext) -> Tuple[float, PlanBundle]:
    """Optimize all tops under ``ctx`` and settle root-level CSEs."""
    run = search.run
    finalized_tops = []
    for tag, payload, top in run.tops:
        search.check_deadline()
        finalized_tops.append(search.finalized_top(tag, payload, top, ctx))
    body_options = {
        c.cse_id: _root_body_options(search, c, ctx) for c in ctx.root_cses
    }
    closings = _closings(run, ctx) if ctx.root_cses else [[]] * len(run.tops)
    # Fold the finalized plan sets left to right in the fixed top order:
    # profile -> (cost, plans, spools).
    merge = run.profiles.merge
    combined: Dict[Profile, _Assembly] = {EMPTY_PROFILE: (0.0, (), ())}
    for finalized, closing in zip(finalized_tops, closings):
        folded: Dict[Profile, _Assembly] = {}
        for profile0, (cost0, plans0, spools0) in combined.items():
            for profile1, plan in finalized.items():
                profile = merge(profile0, profile1)
                cost = cost0 + plan.est_cost
                entry = folded.get(profile)
                if entry is None or cost < entry[0]:
                    folded[profile] = (cost, plans0 + (plan,), spools0)
        for candidate in closing:
            folded = search.settle(
                folded,
                candidate.cse_id,
                itemgetter(0),
                _charge(
                    merge, candidate.cse_id, body_options[candidate.cse_id]
                ),
            )
        combined = folded

    best = combined.get(EMPTY_PROFILE)
    if best is None:
        raise OptimizerError("root assembly produced no valid plan")
    total_cost, plans, spools = best
    order = {c.cse_id: i for i, c in enumerate(ctx.root_cses)}
    spools = tuple(sorted(spools, key=lambda spool: order[spool[0]]))
    if search_module.NAIVE_COST_SPLIT:
        # Naive-split plans reference spools without settling them at any
        # LCA; attach the bodies at the root so execution works (this is
        # exactly the ablation's pathology: split accounting, no
        # single-consumer discard).
        spools = spools + _naive_missing_spools(search, plans, spools)
    return total_cost, _build_bundle(run.tops, total_cost, plans, spools)


def _closings(run: OptimizerRun, ctx: PassContext) -> List[List[CandidateCse]]:
    """Per top, the root candidates settled right after it is folded: no
    later top can read them, and every root candidate whose body can read
    them — whose settlement adds uses — is settled already. What a top (with
    its extension tops) or a body can read is its §5.4 footprint."""
    footprints = run.footprints
    last: Dict[str, int] = {}
    for idx, (tag, payload, top) in enumerate(run.tops):
        exts = run.ext_tops.get(payload.name, ()) if tag == "query" else ()
        for group in (top, *(ext_top for _ext, ext_top in exts)):
            last.update(dict.fromkeys(footprints[group.gid], idx))
    unsettled = list(ctx.root_cses)
    closings: List[List[CandidateCse]] = []
    for idx in range(len(run.tops)):
        closing: List[CandidateCse] = []
        while True:
            ready = [
                c for c in unsettled
                if last.get(c.cse_id, 0) <= idx
                and not any(
                    c.cse_id in footprints[r.body_top_gid] for r in unsettled
                )
            ]
            if not ready:
                break
            closing += ready
            unsettled = [c for c in unsettled if c not in ready]
        closings.append(closing)
    return closings


def _charge(merge, cse_id: str, options: _BodyOptions):
    """Settle a root spool read twice or more: one entry per body choice,
    paying the body and ``C_W`` and opening what the body reads (``merge``
    is the run's profile merge)."""

    def charge(profile: Profile, entry: _Assembly):
        cost, plans, spools = entry
        for body_profile, body_cost, body in options:
            yield merge(profile, body_profile), (
                cost + body_cost,
                plans,
                spools + ((cse_id, body),),
            )

    return charge


def _naive_missing_spools(
    search: Search,
    plans: Tuple[PhysicalPlan, ...],
    spools: Tuple[Tuple[str, PhysicalPlan], ...],
) -> Tuple[Tuple[str, PhysicalPlan], ...]:
    have = {cid for cid, _ in spools}
    read: List[str] = []
    for plan in plans:
        for node in plan.walk():
            if isinstance(node, PhysSpoolDef):
                have.update(cid for cid, _ in node.spools)
            elif isinstance(node, PhysSpoolRead):
                if node.cse_id not in read:
                    read.append(node.cse_id)
    candidates = search.run.candidates_by_id
    return tuple(
        (cid, search.body_plan_standalone(candidates[cid]))
        for cid in read
        if cid not in have
    )


def _root_body_options(
    search: Search, candidate: CandidateCse, ctx: PassContext
) -> _BodyOptions:
    body_top = search.run.memo.groups[candidate.body_top_gid]
    options: _BodyOptions = []
    for profile, plan in search.optimize_group(body_top, ctx).items():
        body = search.spool_body(plan, body_top, candidate.definition.outputs)
        options.append((profile, body.est_cost + candidate.write_cost, body))
    return options


def _build_bundle(
    tops: List[Tuple[str, object, Group]],
    total_cost: float,
    plans: Tuple[PhysicalPlan, ...],
    spools: Tuple[Tuple[str, PhysicalPlan], ...],
) -> PlanBundle:
    queries: List[QueryPlan] = []
    by_query: Dict[str, QueryPlan] = {}
    for (tag, payload, _top), plan in zip(tops, plans):
        if tag == "query":
            query = payload
            shape = query.post.output if query.post else query.block.output
            qplan = QueryPlan(
                name=query.name,
                plan=plan,
                output_names=[o.name for o in shape],
            )
            queries.append(qplan)
            by_query[query.name] = qplan
        else:
            query, sid = payload
            by_query[query.name].subquery_plans[sid] = plan
    # Spools in dependency order: stacked CSEs materialize first.
    return PlanBundle(
        root_spools=_toposort_spools(spools), queries=queries, est_cost=total_cost
    )


def _toposort_spools(
    spools: Tuple[Tuple[str, PhysicalPlan], ...]
) -> Tuple[Tuple[str, PhysicalPlan], ...]:
    remaining = list(spools)
    placed: List[Tuple[str, PhysicalPlan]] = []
    placed_ids: Set[str] = set()
    ids = {cid for cid, _ in spools}
    while remaining:
        progressed = False
        for entry in list(remaining):
            cid, plan = entry
            deps = {
                node.cse_id
                for node in plan.walk()
                if isinstance(node, PhysSpoolRead)
            } & ids
            if deps <= placed_ids:
                placed.append(entry)
                placed_ids.add(cid)
                remaining.remove(entry)
                progressed = True
        if not progressed:
            raise OptimizerError("cyclic spool dependencies")
    return tuple(placed)
