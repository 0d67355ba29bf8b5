"""The memo search: the best plan per group and usage profile.

Exhaustive cost-based search per memo group under one :class:`PassContext`
(the enabled candidate set). Spool costing follows §5.2: each consumer
substitution is charged the usage cost ``C_R`` (plus compensation); the
*initial* cost ``C_E + C_W`` is charged once, at the candidate's
least-common-ancestor group, where plans with a single consumer are
discarded. The bookkeeping uses per-group *usage profiles*: the best plan is
kept per (candidate → uses ∈ {0, 1, ≥2}) vector, and the candidate's
dimension is collapsed at its LCA. Every result lands in the run's §5.4
:class:`~repro.optimizer.state.History`, keyed so later passes reuse it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..cse.candidates import CandidateCse
from ..cse.matching import ConsumerSpec
from ..errors import OptimizerError
from ..expr.expressions import ColumnRef, Comparison, ComparisonOp, Expr, Literal
from ..logical.blocks import BoundQuery, JoinExtension
from ..storage.database import Database
from .aggs import direct_computes
from .cardinality import CardinalityEstimator
from .cost import CostModel
from .memo import AggImplExpr, Group, JoinExpr, RootExpr, ScanExpr
from .options import OptimizerOptions
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
)
from .state import (
    BASE_PASS,
    EMPTY_PROFILE,
    OptimizerRun,
    PassContext,
    PlanChoice,
    PlanSet,
    Profile,
    _profile_add,
    _profile_get,
    _profile_merge,
    _profile_without,
)

#: Cost accounting for shared spools. False is the paper's correct scheme
#: (§5.2: usage cost per consumer, initial cost once at the LCA,
#: single-consumer plans discarded). True reproduces the broken scheme the
#: paper argues against: the initial cost split evenly among potential
#: consumers at substitution time. Read at call time, here and by
#: :mod:`repro.optimizer.assembly` (as ``search.NAIVE_COST_SPLIT``).
NAIVE_COST_SPLIT = False

#: profile -> (cost, plan): one top's plan set after per-query finalization.
FinalizedSet = Dict[Profile, Tuple[float, PhysicalPlan]]


def _ext_join_rows(kind: str, core_rows: float) -> float:
    """Cardinality of an extension join. The core side is preserved:
    left_outer emits every core row at least once, semi/anti partition the
    core rows (estimated half each)."""
    if kind == "left_outer":
        return max(core_rows, 1.0)
    return max(core_rows * 0.5, 1.0)


def _cap_planset(plans: PlanSet, limit: int) -> PlanSet:
    """Bound a group's profile dictionary, always keeping the base plan."""
    if len(plans) <= limit:
        return plans
    kept = dict(sorted(plans.items(), key=lambda kv: kv[1].cost)[: limit - 1])
    if EMPTY_PROFILE in plans:
        kept[EMPTY_PROFILE] = plans[EMPTY_PROFILE]
    return kept


def relevant_ids(
    run: OptimizerRun, group: Group, ctx: PassContext
) -> FrozenSet[str]:
    """The enabled candidate ids that can affect ``group``'s plan set:
    the group's §5.4 candidate footprint ∩ the pass's enabled set. Two
    passes agreeing on this set get identical plan sets for the group,
    which is what makes the history cache sound."""
    if not ctx.enabled:
        return frozenset()
    return run.footprints[group.gid] & ctx.enabled_ids


def relevant_ids_slow(
    run: OptimizerRun, group: Group, ctx: PassContext
) -> FrozenSet[str]:
    """Footprint-free cross-check oracle for :func:`relevant_ids` (the
    tests use it): intersect each candidate's consumer gids with the
    group's descendant set, recomputed per call."""
    covered = run.memo.descendants(group) | {group.gid}
    relevant = set()
    for candidate in ctx.enabled:
        if run.consumer_gids.get(candidate.cse_id, set()) & covered:
            relevant.add(candidate.cse_id)
    return frozenset(relevant)


@dataclass
class Search:
    """The profile DP over one run's memo, plus per-top finalization."""

    run: OptimizerRun
    database: Database
    estimator: CardinalityEstimator
    cost_model: CostModel
    options: OptimizerOptions
    #: raises OptimizerTimeoutError once the run's deadline has passed.
    check_deadline: Callable[[], None]

    # ------------------------------------------------------------------
    # Group optimization (the profile DP)
    # ------------------------------------------------------------------

    def optimize_group(self, group: Group, ctx: PassContext) -> PlanSet:
        history = self.run.history
        cache_key = (group.gid, relevant_ids(self.run, group, ctx))
        cached = history.plan_cache.get(cache_key)
        if cached is not None:
            history.hits += 1
            if history.cache_pass[cache_key] < history.pass_index:
                history.reused_gids.add(group.gid)
            return cached
        history.misses += 1
        # Reused paths return above without this check, so it must sit on
        # the compute path to keep the governor's deadline live per group.
        self.check_deadline()

        plans: PlanSet = {}

        def offer(profile: Profile, cost: float, plan: PhysicalPlan) -> None:
            existing = plans.get(profile)
            if existing is None or cost < existing.cost:
                plans[profile] = PlanChoice(cost, plan)

        for expr in group.exprs:
            if isinstance(expr, ScanExpr):
                for cost, plan in self._scan_alternatives(group, expr):
                    offer(EMPTY_PROFILE, cost, plan)
            elif isinstance(expr, JoinExpr):
                self._join_alternatives(group, expr, ctx, offer)
            elif isinstance(expr, AggImplExpr):
                self._agg_alternatives(group, expr, ctx, offer)
            elif isinstance(expr, RootExpr):
                raise OptimizerError("root group must go through assemble()")

        # Consumer substitution (§5.1): spool read + compensation.
        for candidate, spec in ctx.substitutions.get(group.gid, ()):
            cost, plan = self._substitute_plan(candidate, spec, group)
            if NAIVE_COST_SPLIT:
                consumer_count = max(
                    1, len(self.run.specs[candidate.cse_id])
                    + len(self.run.body_specs[candidate.cse_id])
                )
                cost += candidate.initial_cost / consumer_count
                offer(EMPTY_PROFILE, cost, plan)
            else:
                offer(_profile_add(EMPTY_PROFILE, candidate.cse_id), cost, plan)

        # LCA settlement (§5.2): discard single-consumer plans, charge the
        # initial cost once for plans with >= 2 consumers.
        for candidate in ctx.closings.get(group.gid, ()):
            plans = self._close_candidate(plans, candidate)

        if not plans:
            raise OptimizerError(f"group g{group.gid} produced no plan")
        plans = _cap_planset(plans, 200)
        history.plan_cache[cache_key] = plans
        history.cache_pass[cache_key] = history.pass_index
        return plans

    def tally_single_consumer(self, cse_ids: Sequence[str]) -> None:
        """Count one plan discarded by §5.2's rule — a spool with fewer than
        two consumers can never beat recomputation — against the candidates
        in ``cse_ids`` that fell short, so EXPLAIN ANALYZE and the decision
        journal can report how often the rule fired, and against whom."""
        self.run.stats.single_consumer_discards += 1
        tallies = self.run.sc_discards
        for cid in cse_ids:
            tallies[cid] = tallies.get(cid, 0) + 1

    def _close_candidate(self, plans: PlanSet, candidate: CandidateCse) -> PlanSet:
        closed: PlanSet = {}
        body_plan = self.body_plan_standalone(candidate)
        for profile, choice in plans.items():
            uses = _profile_get(profile, candidate.cse_id)
            if uses == 1:
                self.tally_single_consumer((candidate.cse_id,))
                continue
            new_profile = _profile_without(profile, candidate.cse_id)
            cost = choice.cost
            plan = choice.plan
            if uses >= 2:
                cost += candidate.initial_cost
                plan = PhysSpoolDef(
                    spools=((candidate.cse_id, body_plan),),
                    child=plan,
                    est_rows=plan.est_rows,
                )
            existing = closed.get(new_profile)
            if existing is None or cost < existing.cost:
                closed[new_profile] = PlanChoice(cost, plan)
        return closed

    def body_plan_standalone(self, candidate: CandidateCse) -> PhysicalPlan:
        body_top = self.run.memo.groups[candidate.body_top_gid]
        body_set = self.optimize_group(body_top, BASE_PASS)
        return PhysProject(
            body_set[EMPTY_PROFILE].plan,
            candidate.definition.outputs,
            est_rows=body_top.est_rows,
        )

    def record_bounds(self) -> None:
        """After the base pass, copy optimal costs into per-group bounds."""
        plan_cache = self.run.history.plan_cache
        for group in self.run.memo.groups:
            if group.kind == "root":
                continue
            cached = plan_cache.get((group.gid, frozenset()))
            if cached and EMPTY_PROFILE in cached:
                cost = cached[EMPTY_PROFILE].cost
                group.lower_bound = cost
                group.upper_bound = cost

    # -- physical alternatives ------------------------------------------------

    def _scan_alternatives(
        self, group: Group, expr: ScanExpr
    ) -> List[Tuple[float, PhysicalPlan]]:
        table_ref = expr.table_ref
        table_rows = self.estimator.table_rows(table_ref)
        width = self.database.catalog.table(table_ref.physical_name).row_width()
        alternatives: List[Tuple[float, PhysicalPlan]] = []
        seq_cost = self.cost_model.scan(table_rows, width, len(expr.conjuncts))
        alternatives.append(
            (
                seq_cost,
                PhysScan(
                    table_ref=table_ref,
                    conjuncts=expr.conjuncts,
                    outputs=group.required_outputs,
                    est_rows=group.est_rows,
                ),
            )
        )
        for conjunct in expr.conjuncts:
            plan_cost = self._index_alternative(group, expr, conjunct, width)
            if plan_cost is not None:
                alternatives.append(plan_cost)
        return alternatives

    def _index_alternative(
        self, group: Group, expr: ScanExpr, conjunct: Expr, width: int
    ) -> Optional[Tuple[float, PhysicalPlan]]:
        if not isinstance(conjunct, Comparison):
            return None
        normalized = conjunct.normalized()
        if not (
            isinstance(normalized.left, ColumnRef)
            and isinstance(normalized.right, Literal)
        ):
            return None
        column = normalized.left
        index = self.database.index_for(expr.table_ref.physical_name, column.column)
        if index is None:
            return None
        fraction = self.estimator.index_match_fraction(column, conjunct)
        if fraction is None:
            return None
        table_rows = self.estimator.table_rows(expr.table_ref)
        matching = fraction * table_rows
        residual = tuple(c for c in expr.conjuncts if c is not conjunct)
        cost = self.cost_model.index_scan(matching, width, len(residual))
        low = high = None
        low_inc = high_inc = True
        value = float(normalized.right.value)
        op = normalized.op
        if op is ComparisonOp.EQ:
            low = high = value
        elif op is ComparisonOp.LT:
            high, high_inc = value, False
        elif op is ComparisonOp.LE:
            high = value
        elif op is ComparisonOp.GT:
            low, low_inc = value, False
        elif op is ComparisonOp.GE:
            low = value
        else:
            return None
        plan = PhysIndexScan(
            table_ref=expr.table_ref,
            column=column,
            low=low,
            high=high,
            low_inclusive=low_inc,
            high_inclusive=high_inc,
            residual=residual,
            outputs=group.required_outputs,
            est_rows=group.est_rows,
        )
        return cost, plan

    def _join_alternatives(self, group: Group, expr: JoinExpr, ctx, offer) -> None:
        left_set = self.optimize_group(expr.left, ctx)
        right_set = self.optimize_group(expr.right, ctx)
        out_rows = group.est_rows
        for left_profile, left_choice in left_set.items():
            for right_profile, right_choice in right_set.items():
                profile = _profile_merge(left_profile, right_profile)
                build_rows = min(expr.left.est_rows, expr.right.est_rows)
                probe_rows = max(expr.left.est_rows, expr.right.est_rows)
                if expr.hash_keys:
                    local = self.cost_model.hash_join(
                        build_rows, probe_rows, out_rows, len(expr.residual)
                    )
                else:
                    local = self.cost_model.cross_join(
                        expr.left.est_rows, expr.right.est_rows, out_rows
                    )
                # Build on the smaller side: put it on the left.
                if expr.left.est_rows <= expr.right.est_rows:
                    left_plan, right_plan = left_choice.plan, right_choice.plan
                    keys = expr.hash_keys
                else:
                    left_plan, right_plan = right_choice.plan, left_choice.plan
                    keys = tuple((r, l) for l, r in expr.hash_keys)
                plan = PhysHashJoin(
                    left=left_plan,
                    right=right_plan,
                    keys=keys,
                    residual=expr.residual,
                    outputs=group.required_outputs,
                    est_rows=out_rows,
                )
                offer(profile, left_choice.cost + right_choice.cost + local, plan)

    def _agg_alternatives(self, group: Group, expr: AggImplExpr, ctx, offer) -> None:
        child_set = self.optimize_group(expr.input_group, ctx)
        input_rows = expr.input_group.est_rows
        if expr.identity:
            node = PhysIdentityAgg
            local = self.cost_model.project(
                input_rows, len(expr.keys) + len(expr.computes)
            )
        else:
            node = PhysHashAgg
            local = self.cost_model.aggregate(
                input_rows, group.est_rows, len(expr.computes)
            )
        for profile, choice in child_set.items():
            plan = node(
                child=choice.plan,
                keys=expr.keys,
                computes=expr.computes,
                est_rows=group.est_rows,
            )
            offer(profile, choice.cost + local, plan)

    def _filter(
        self, cost: float, plan: PhysicalPlan, rows: float, conjuncts: Sequence[Expr]
    ) -> Tuple[float, PhysicalPlan, float]:
        """``(cost, plan, rows)`` with a filter on ``conjuncts`` stacked on
        top; unchanged when there are none."""
        if not conjuncts:
            return cost, plan, rows
        cost += self.cost_model.filter(rows, len(conjuncts))
        selectivity = 1.0
        for conjunct in conjuncts:
            selectivity *= self.estimator.conjunct_selectivity(conjunct)
        rows = max(rows * selectivity, 1.0)
        return cost, PhysFilter(plan, tuple(conjuncts), est_rows=rows), rows

    def _substitute_plan(
        self, candidate: CandidateCse, spec: ConsumerSpec, group: Group
    ) -> Tuple[float, PhysicalPlan]:
        rows = candidate.definition.est_rows
        plan: PhysicalPlan = PhysSpoolRead(
            cse_id=candidate.cse_id,
            column_map=spec.column_map,
            est_rows=rows,
        )
        cost, plan, rows = self._filter(
            candidate.read_cost, plan, rows, spec.residual
        )
        if spec.needs_reagg:
            cost += self.cost_model.aggregate(
                rows, group.est_rows, len(spec.reagg_computes or ())
            )
            plan = PhysHashAgg(
                child=plan,
                keys=spec.reagg_keys or (),
                computes=spec.reagg_computes or (),
                est_rows=group.est_rows,
            )
        return cost, plan

    # ------------------------------------------------------------------
    # Per-top finalization
    # ------------------------------------------------------------------

    def _finish(
        self, cost: float, plan: PhysicalPlan, rows: float, having, output, order_by
    ) -> Tuple[float, PhysicalPlan]:
        """The shape every top ends in: HAVING, final projection, ORDER BY."""
        cost, plan, rows = self._filter(cost, plan, rows, having)
        cost += self.cost_model.project(rows, len(output))
        plan = PhysProject(plan, output, est_rows=rows)
        if order_by:
            cost += self.cost_model.sort(rows)
            plan = PhysSort(plan, tuple(order_by), est_rows=rows)
        return cost, plan

    def finalized_top(
        self, idx: int, tag: str, payload, top: Group, ctx: PassContext
    ) -> Tuple[FrozenSet[str], FinalizedSet]:
        """One top's plan set with per-query finalization (HAVING, final
        projection, ORDER BY) already applied, as profile -> (cost, plan).

        Cached by (top index, relevant ids): finalization depends only on
        the query block and the top's plan set, and the relevant-ids key
        pins the latter down — so the result is reusable across Step-3
        passes. Hoisting it here also removes the finalize work from the
        |combined| × |child plan set| fold loop of root assembly.

        Extended queries (surviving outer/semi/anti extensions) fold their
        extension tops' plan sets into the core's here, so the relevant-ids
        key is the union over the core and every extension top."""
        run = self.run
        ext_entries: Sequence[Tuple[JoinExtension, Group]] = ()
        if tag == "query" and payload.extensions:
            ext_entries = run.ext_tops[payload.name]
        relevant = relevant_ids(run, top, ctx)
        for _ext, ext_top in ext_entries:
            relevant = relevant | relevant_ids(run, ext_top, ctx)
        key = (idx, relevant)
        cached = run.history.finalize_cache.get(key)
        if cached is not None:
            return relevant, cached
        if ext_entries:
            finalized = self._finalize_extended_query(
                payload, top, ext_entries, ctx
            )
        else:
            if tag == "query":
                block, order_by = payload.block, payload.order_by
                having = block.having
            else:  # a scalar subquery: projection only
                query, sid = payload
                block, having, order_by = query.subqueries[sid], (), ()
            finalized = {
                profile: self._finish(
                    choice.cost, choice.plan, top.est_rows,
                    having, block.output, order_by,
                )
                for profile, choice in self.optimize_group(top, ctx).items()
            }
        run.history.finalize_cache[key] = finalized
        return relevant, finalized

    def _finalize_extended_query(
        self,
        query: BoundQuery,
        top: Group,
        ext_entries: Sequence[Tuple[JoinExtension, Group]],
        ctx: PassContext,
    ) -> FinalizedSet:
        """Plan set for a query with surviving join extensions.

        The core and each extension block were optimized as independent
        groups (each can read spools on its own); here their plan sets are
        cross-merged profile-wise, the extension joins stitched on top of
        the core in binder order, and the post-join shape (3VL filters,
        aggregation, HAVING, projection, ORDER BY) applied above."""
        core_set = self.optimize_group(top, ctx)
        combined: Dict[Profile, Tuple[float, PhysicalPlan, float]] = {
            profile: (choice.cost, choice.plan, top.est_rows)
            for profile, choice in core_set.items()
        }
        # Columns flowing up the stitched join chain: the core's outputs
        # plus every preceding left_outer extension's (null-extended)
        # outputs. Semi/anti joins pass the running set through unchanged.
        running_outputs = tuple(top.required_outputs)
        for ext, ext_top in ext_entries:
            outputs = running_outputs
            if ext.kind == "left_outer":
                outputs = outputs + tuple(ext_top.required_outputs)
            ext_set = self.optimize_group(ext_top, ctx)
            folded: Dict[Profile, Tuple[float, PhysicalPlan, float]] = {}
            for profile0, (cost0, plan0, rows0) in combined.items():
                for profile1, choice in ext_set.items():
                    profile = _profile_merge(profile0, profile1)
                    out_rows = _ext_join_rows(ext.kind, rows0)
                    cost = cost0 + choice.cost + self.cost_model.hash_join(
                        min(rows0, ext_top.est_rows),
                        max(rows0, ext_top.est_rows),
                        out_rows,
                        0,
                    )
                    plan = PhysHashJoin(
                        left=plan0,
                        right=choice.plan,
                        keys=tuple(ext.keys),
                        residual=(),
                        outputs=outputs,
                        est_rows=out_rows,
                        join_type=ext.kind,
                    )
                    entry = folded.get(profile)
                    if entry is None or cost < entry[0]:
                        folded[profile] = (cost, plan, out_rows)
            combined = folded
            running_outputs = outputs

        post = query.post
        assert post is not None
        finalized: FinalizedSet = {}
        for profile, (cost, plan, rows) in combined.items():
            cost, plan, rows = self._filter(cost, plan, rows, post.filters)
            if post.has_groupby:
                computes = direct_computes(post.aggregates)
                groups = self.estimator.group_rows(rows, post.group_keys)
                cost += self.cost_model.aggregate(rows, groups, len(computes))
                plan = PhysHashAgg(
                    child=plan,
                    keys=tuple(post.group_keys),
                    computes=computes,
                    est_rows=groups,
                )
                rows = groups
            finalized[profile] = self._finish(
                cost, plan, rows, post.having, post.output, query.order_by
            )
        return finalized
