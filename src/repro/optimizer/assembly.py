"""Root assembly: fold the per-top plan sets into one batch plan.

Every query and scalar-subquery top is optimized under the pass's context,
the plan sets are folded left to right, and the candidates that settle at
the batch root — cross-query ones and those consumed inside other
candidates' bodies (stacked CSEs, §5.5) — are resolved there: which of them
to materialize, with which body plan, under §5.2's ≥ 2-consumers rule. The
winner becomes a :class:`~repro.optimizer.physical.PlanBundle`.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..errors import OptimizerError
from .memo import Group
from .physical import (
    PhysProject,
    PhysSpoolDef,
    PhysSpoolRead,
    PhysicalPlan,
    PlanBundle,
    QueryPlan,
)
from .search import Search
from .state import (
    EMPTY_PROFILE,
    PassContext,
    Profile,
    _profile_merge,
    _profile_support,
)

#: (total cost, per-top plans, root spools)
_Assembly = Tuple[float, Tuple[PhysicalPlan, ...], Tuple]
#: per root CSE: (profile, cost incl. C_W, body plan) body choices.
_BodyOptions = Dict[str, List[Tuple[Profile, float, PhysicalPlan]]]


def assemble(search: Search, ctx: PassContext) -> Tuple[float, PlanBundle]:
    """Optimize all tops under ``ctx`` and settle root-level CSEs."""
    run = search.run
    history = run.history
    # Fold children plansets: profile -> (cost, plans tuple). The fold
    # is a left-to-right reduction over the fixed top order, so a pass
    # agreeing with an earlier one on every (top, relevant-ids) pair of
    # a prefix can resume from that prefix's cached fold (§5.4). The
    # cached dicts are never mutated downstream — later fold steps and
    # the root settlement below only read them.
    combined: Dict[Profile, Tuple[float, Tuple[PhysicalPlan, ...]]] = {
        EMPTY_PROFILE: (0.0, ())
    }
    prefix_key: Tuple = ()
    for idx, (tag, payload, top) in enumerate(run.tops):
        search.check_deadline()
        relevant, finalized = search.finalized_top(idx, tag, payload, top, ctx)
        prefix_key = prefix_key + ((top.gid, relevant),)
        cached_fold = history.fold_cache.get(prefix_key)
        if cached_fold is not None:
            combined = cached_fold
            history.fold_hits += 1
            continue
        folded: Dict[Profile, Tuple[float, Tuple[PhysicalPlan, ...]]] = {}
        for profile0, (cost0, plans0) in combined.items():
            for profile1, (cost1, plan) in finalized.items():
                profile = _profile_merge(profile0, profile1)
                cost = cost0 + cost1
                entry = folded.get(profile)
                if entry is None or cost < entry[0]:
                    folded[profile] = (cost, plans0 + (plan,))
        if len(folded) > 512:
            keep = sorted(folded.items(), key=lambda kv: kv[1][0])[:511]
            if EMPTY_PROFILE not in dict(keep):
                keep.append((EMPTY_PROFILE, folded[EMPTY_PROFILE]))
            folded = dict(keep)
        combined = folded
        history.fold_cache[prefix_key] = combined

    best: Optional[_Assembly] = None
    if not ctx.root_cses:
        for profile, (cost, plans) in combined.items():
            if _profile_support(profile):
                continue  # open CSEs with no settlement point: invalid
            if best is None or cost < best[0]:
                best = (cost, plans, ())
    elif len(ctx.root_cses) <= 8:
        body_options = _root_body_options(search, ctx)
        root_ids = sorted(c.cse_id for c in ctx.root_cses)
        for r in range(len(root_ids) + 1):
            for active_ids in itertools.combinations(root_ids, r):
                candidate_best = _resolve_root_subset(
                    search, combined, frozenset(active_ids), body_options
                )
                if candidate_best is not None and (
                    best is None or candidate_best[0] < best[0]
                ):
                    best = candidate_best
    else:
        # Very large enabled sets (no-heuristics ablations): greedy
        # per-profile activation instead of the exponential search.
        best = _resolve_root_greedy(
            search, ctx, combined, _root_body_options(search, ctx)
        )

    if best is None:
        raise OptimizerError("root assembly produced no valid plan")
    total_cost, plans, spools = best
    if search.options.cost_mode == "naive_split":
        # Naive-split plans reference spools without settling them at any
        # LCA; attach the bodies at the root so execution works (this is
        # exactly the ablation's pathology: split accounting, no
        # single-consumer discard).
        spools = spools + _naive_missing_spools(search, plans, spools)
    return total_cost, _build_bundle(run.tops, total_cost, plans, spools)


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


def _root_body_options(search: Search, ctx: PassContext) -> _BodyOptions:
    options: _BodyOptions = {}
    for candidate in ctx.root_cses:
        body_top = search.run.memo.groups[candidate.body_top_gid]
        body_set = search.optimize_group(body_top, ctx)
        project_cost = search.cost_model.project(
            body_top.est_rows, len(candidate.definition.outputs)
        )
        entries: List[Tuple[Profile, float, PhysicalPlan]] = []
        for profile, choice in body_set.items():
            plan = PhysProject(
                choice.plan,
                candidate.definition.outputs,
                est_rows=body_top.est_rows,
            )
            entries.append(
                (
                    profile,
                    choice.cost + project_cost + candidate.write_cost,
                    plan,
                )
            )
        options[candidate.cse_id] = entries
    return options


def _settled(search: Search, counts: Dict[str, int], active: Iterable[str]) -> bool:
    """The root-level instance of §5.2's rule: whether every spool in
    ``active`` has at least two consumers under ``counts``. An activation
    that fails is tallied against the candidates that fell short."""
    short = [cid for cid in active if counts.get(cid, 0) < 2]
    if short:
        search.tally_single_consumer(short)
    return not short


def _resolve_root_greedy(
    search: Search, ctx: PassContext, combined, body_options: _BodyOptions
) -> Optional[_Assembly]:
    """Per-profile greedy activation for very large root candidate sets.

    For each folded query profile, activates exactly the CSEs the plan
    reads (closing over stacked body dependencies with cheapest-first
    body choices) and validates the ≥2-consumers rule. Profiles whose
    activation cannot be validated are skipped; the no-CSE profile is
    always valid, so a plan is always found.
    """
    root_ids = frozenset(c.cse_id for c in ctx.root_cses)
    entries: Dict[str, List[Tuple[Profile, float, PhysicalPlan, FrozenSet[str]]]] = {}
    for cid, options in body_options.items():
        rows = [
            (profile, cost, plan, _profile_support(profile))
            for profile, cost, plan in options
        ]
        rows.sort(key=lambda r: r[1])
        entries[cid] = rows

    best: Optional[_Assembly] = None
    for profile, (cost, plans) in combined.items():
        support = _profile_support(profile)
        if not support <= root_ids:
            continue
        active = set(support)
        chosen: Dict[str, Tuple[Profile, float, PhysicalPlan, FrozenSet[str]]] = {}
        for _ in range(4):  # bounded dependency-closure rounds
            changed = False
            for cid in sorted(active):
                options = entries.get(cid)
                if not options:
                    chosen = {}
                    active = None
                    break
                pick = next(
                    (o for o in options if o[3] <= active), options[0]
                )
                if chosen.get(cid) is not pick:
                    chosen[cid] = pick
                    changed = True
                for dep in pick[3]:
                    if dep not in active:
                        active.add(dep)
                        changed = True
            if active is None or not changed:
                break
        if active is None:
            continue
        counts: Dict[str, int] = {cid: n for cid, n in profile}
        for cid, pick in chosen.items():
            for inner, n in pick[0]:
                counts[inner] = min(2, counts.get(inner, 0) + n)
        if not _settled(search, counts, active):
            continue
        total = cost + sum(pick[1] for pick in chosen.values())
        if best is None or total < best[0]:
            spools = tuple(
                (cid, pick[2]) for cid, pick in sorted(chosen.items())
            )
            best = (total, plans, spools)
    return best


def _resolve_root_subset(
    search: Search,
    combined,
    active_ids: FrozenSet[str],
    body_options: _BodyOptions,
) -> Optional[_Assembly]:
    """Best assembly using exactly the root candidates in ``active_ids``."""
    best: Optional[_Assembly] = None
    # Body choice options per active candidate, restricted to the active
    # set and Pareto-pruned (an entry dominated in both cost and consumed
    # set can never help).
    per_body: List[List[Tuple[str, Profile, float, PhysicalPlan]]] = []
    for cid, options in body_options.items():  # root_cses order
        if cid not in active_ids:
            continue
        valid = [
            (cid, profile, cost, plan)
            for profile, cost, plan in options
            if _profile_support(profile) <= active_ids
        ]
        if not valid:
            return None
        valid.sort(key=lambda entry: entry[2])
        pareto: List[Tuple[str, Profile, float, PhysicalPlan]] = []
        for entry in valid:
            support = _profile_support(entry[1])
            if any(
                kept[2] <= entry[2]
                and support <= _profile_support(kept[1])
                for kept in pareto
            ):
                continue
            pareto.append(entry)
        per_body.append(pareto)

    combo_space = 1
    for options in per_body:
        combo_space *= len(options)
    if combo_space <= 512:
        combo_list = list(itertools.product(*per_body)) if per_body else [()]
    else:
        # Safety valve for pathological stacking depth: cheapest bodies
        # plus the maximal-consumption variant of each.
        cheapest = tuple(options[0] for options in per_body)
        greediest = tuple(
            max(options, key=lambda e: len(_profile_support(e[1])))
            for options in per_body
        )
        combo_list = [cheapest]
        if greediest != cheapest:
            combo_list.append(greediest)

    for profile, (cost, plans) in combined.items():
        if not _profile_support(profile) <= active_ids:
            continue
        for body_combo in combo_list:
            counts: Dict[str, int] = {cid: n for cid, n in profile}
            body_cost = 0.0
            spools: List[Tuple[str, PhysicalPlan]] = []
            for cid, body_profile, bcost, bplan in body_combo:
                body_cost += bcost
                spools.append((cid, bplan))
                for inner_id, n in body_profile:
                    counts[inner_id] = min(2, counts.get(inner_id, 0) + n)
            if not _settled(search, counts, active_ids):
                continue
            total = cost + body_cost
            if best is None or total < best[0]:
                best = (total, plans, tuple(spools))
    return best


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
