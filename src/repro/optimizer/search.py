"""The memo search: the best plan per group and usage profile.

Exhaustive cost-based search per memo group under one :class:`PassContext`
(the enabled candidate set). Spool costing follows §5.2: each consumer
substitution is charged the usage cost ``C_R`` (plus compensation); the
*initial* cost ``C_E + C_W`` is charged once, at the candidate's
least-common-ancestor group, where plans with a single consumer are
discarded. The bookkeeping uses per-group *usage profiles*: the best plan is
kept per (candidate → uses ∈ {0, 1, ≥2}) vector, and the candidate's
dimension is collapsed at its LCA. Every result lands in the run's §5.4
:class:`~repro.optimizer.state.History`, keyed so the Step-3 pass reuses
the base pass's plan set of every group no candidate reaches.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
)

from ..cse.candidates import CandidateCse
from ..cse.matching import ConsumerSpec
from ..errors import OptimizerError
from ..expr.expressions import ColumnRef, Comparison, ComparisonOp, Expr, Literal
from ..logical.blocks import BoundQuery, JoinExtension, OutputColumn
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
    PlanSet,
    Profile,
)

#: Cost accounting for shared spools. False is the paper's correct scheme
#: (§5.2: usage cost per consumer, initial cost once at the LCA,
#: single-consumer plans discarded). True reproduces the broken scheme the
#: paper argues against: the initial cost split evenly among potential
#: consumers at substitution time. Read at call time, here and by
#: :mod:`repro.optimizer.assembly` (as ``search.NAIVE_COST_SPLIT``).
NAIVE_COST_SPLIT = False

#: what :meth:`Search.settle` keeps per usage profile: a plan inside the
#: memo, a ``(cost, plans, spools)`` fold entry at the batch root.
_Entry = TypeVar("_Entry")


def _ext_join_rows(kind: str, core_rows: float) -> float:
    """Cardinality of an extension join. The core side is preserved:
    left_outer emits every core row at least once, semi/anti partition the
    core rows (estimated half each)."""
    if kind == "left_outer":
        return max(core_rows, 1.0)
    return max(core_rows * 0.5, 1.0)


def relevant_ids(
    run: OptimizerRun, group: Group, ctx: PassContext
) -> FrozenSet[str]:
    """The enabled candidate ids that can affect ``group``'s plan set.

    A pass enables no candidate (the base pass) or every one (Step 3), so
    this is nothing or the group's §5.4 candidate footprint. A group whose
    footprint is empty gets the same plan set in both passes, which is
    what lets the history cache hand the Step-3 pass the base pass's."""
    if not ctx.enabled:
        return frozenset()
    return run.footprints[group.gid]


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

        def offer(profile: Profile, plan: PhysicalPlan) -> None:
            existing = plans.get(profile)
            if existing is None or plan.est_cost < existing.est_cost:
                plans[profile] = plan

        for expr in group.exprs:
            if isinstance(expr, ScanExpr):
                for plan in self._scan_alternatives(group, expr):
                    offer(EMPTY_PROFILE, plan)
            elif isinstance(expr, JoinExpr):
                self._join_alternatives(group, expr, ctx, offer)
            elif isinstance(expr, AggImplExpr):
                self._agg_alternatives(group, expr, ctx, offer)
            elif isinstance(expr, RootExpr):
                raise OptimizerError("root group must go through assemble()")

        # Consumer substitution (§5.1): spool read + compensation.
        for candidate, spec in ctx.substitutions.get(group.gid, ()):
            plan = self._substitute_plan(candidate, spec, group)
            if NAIVE_COST_SPLIT:
                consumer_count = max(
                    1, len(self.run.specs[candidate.cse_id])
                    + len(self.run.body_specs[candidate.cse_id])
                )
                share = candidate.initial_cost / consumer_count
                offer(EMPTY_PROFILE, replace(plan, est_cost=plan.est_cost + share))
            else:
                offer(self.run.profiles.bits(candidate.cse_id)[0], plan)

        # LCA settlement (§5.2): discard single-consumer plans, charge the
        # initial cost once for plans with >= 2 consumers.
        for candidate in ctx.closings.get(group.gid, ()):
            plans = self._close_candidate(plans, candidate)

        if not plans:
            raise OptimizerError(f"group g{group.gid} produced no plan")
        history.plan_cache[cache_key] = plans
        history.cache_pass[cache_key] = history.pass_index
        return plans

    def settle(
        self,
        entries: Dict[Profile, _Entry],
        cse_id: str,
        cost: Callable[[_Entry], float],
        charge: Callable[[Profile, _Entry], Iterable[Tuple[Profile, _Entry]]],
    ) -> Dict[Profile, _Entry]:
        """§5.2's rule at ``cse_id``'s least common ancestor, over one best
        entry per usage profile. An entry that reads the spool once is
        discarded — a spool with one consumer can never beat recomputation
        — and tallied against the candidate, so EXPLAIN ANALYZE and
        ``explain --why`` can report how often the rule fired. One that
        never reads it passes through. One that reads it twice or more is
        replaced by what ``charge`` makes of it under the profile without
        ``cse_id``: the entry with the initial cost ``C_E + C_W`` paid
        once. The cheapest entry per resulting profile is kept."""
        once, twice = self.run.profiles.bits(cse_id)
        both = once | twice
        settled: Dict[Profile, _Entry] = {}
        for profile, entry in entries.items():
            uses = profile & both
            if uses == once:
                self.run.stats.single_consumer_discards += 1
                tallies = self.run.sc_discards
                tallies[cse_id] = tallies.get(cse_id, 0) + 1
                continue
            for new_profile, new_entry in (
                charge(profile ^ uses, entry) if uses else ((profile, entry),)
            ):
                existing = settled.get(new_profile)
                if existing is None or cost(new_entry) < cost(existing):
                    settled[new_profile] = new_entry
        return settled

    def _close_candidate(
        self, plans: PlanSet, candidate: CandidateCse
    ) -> PlanSet:
        body_plan = self.body_plan_standalone(candidate)

        def charge(profile: Profile, plan: PhysicalPlan):
            yield profile, PhysSpoolDef(
                spools=((candidate.cse_id, body_plan),),
                child=plan,
                est_rows=plan.est_rows,
                est_cost=plan.est_cost + candidate.initial_cost,
            )

        return self.settle(
            plans, candidate.cse_id, attrgetter("est_cost"), charge
        )

    def spool_body(
        self,
        plan: PhysicalPlan,
        body_top: Group,
        outputs: Tuple[OutputColumn, ...],
    ) -> PhysProject:
        """A candidate body plan under the projection onto its work-table
        columns, costed as the body plus the projection (``C_E``); the
        write cost ``C_W`` is charged where the spool is settled."""
        return PhysProject(
            plan,
            outputs,
            est_rows=body_top.est_rows,
            est_cost=plan.est_cost
            + self.cost_model.project(body_top.est_rows, len(outputs)),
        )

    def body_plan_standalone(self, candidate: CandidateCse) -> PhysProject:
        body_top = self.run.memo.groups[candidate.body_top_gid]
        body_set = self.optimize_group(body_top, BASE_PASS)
        return self.spool_body(
            body_set[EMPTY_PROFILE], body_top, candidate.definition.outputs
        )

    def record_bounds(self) -> None:
        """After the base pass, copy optimal costs into per-group bounds."""
        plan_cache = self.run.history.plan_cache
        for group in self.run.memo.groups:
            if group.kind == "root":
                continue
            cached = plan_cache.get((group.gid, frozenset()))
            if cached and EMPTY_PROFILE in cached:
                cost = cached[EMPTY_PROFILE].est_cost
                group.lower_bound = cost
                group.upper_bound = cost

    # -- physical alternatives ------------------------------------------------

    def _scan_alternatives(
        self, group: Group, expr: ScanExpr
    ) -> List[PhysicalPlan]:
        table_ref = expr.table_ref
        table_rows = self.estimator.table_rows(table_ref)
        width = self.database.catalog.table(table_ref.physical_name).row_width()
        alternatives: List[PhysicalPlan] = [
            PhysScan(
                table_ref=table_ref,
                conjuncts=expr.conjuncts,
                outputs=group.required_outputs,
                est_rows=group.est_rows,
                est_cost=self.cost_model.scan(
                    table_rows, width, len(expr.conjuncts)
                ),
            )
        ]
        for conjunct in expr.conjuncts:
            plan = self._index_alternative(group, expr, conjunct, width)
            if plan is not None:
                alternatives.append(plan)
        return alternatives

    def _index_alternative(
        self, group: Group, expr: ScanExpr, conjunct: Expr, width: int
    ) -> Optional[PhysIndexScan]:
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
        return PhysIndexScan(
            table_ref=expr.table_ref,
            column=column,
            low=low,
            high=high,
            low_inclusive=low_inc,
            high_inclusive=high_inc,
            residual=residual,
            outputs=group.required_outputs,
            est_rows=group.est_rows,
            est_cost=self.cost_model.index_scan(matching, width, len(residual)),
        )

    def _join_alternatives(self, group: Group, expr: JoinExpr, ctx, offer) -> None:
        left_set = self.optimize_group(expr.left, ctx)
        right_set = self.optimize_group(expr.right, ctx)
        out_rows = group.est_rows
        left_rows, right_rows = expr.left.est_rows, expr.right.est_rows
        if expr.hash_keys:
            local = self.cost_model.hash_join(
                min(left_rows, right_rows),
                max(left_rows, right_rows),
                out_rows,
                len(expr.residual),
            )
        else:
            local = self.cost_model.cross_join(left_rows, right_rows, out_rows)
        # Build on the smaller side: put it on the left.
        swap = left_rows > right_rows
        keys = (
            tuple((r, l) for l, r in expr.hash_keys) if swap else expr.hash_keys
        )
        merge = self.run.profiles.merge
        for left_profile, left_plan in left_set.items():
            for right_profile, right_plan in right_set.items():
                build, probe = (
                    (right_plan, left_plan) if swap else (left_plan, right_plan)
                )
                offer(
                    merge(left_profile, right_profile),
                    PhysHashJoin(
                        left=build,
                        right=probe,
                        keys=keys,
                        residual=expr.residual,
                        outputs=group.required_outputs,
                        est_rows=out_rows,
                        est_cost=left_plan.est_cost + right_plan.est_cost + local,
                    ),
                )

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
        for profile, plan in child_set.items():
            offer(
                profile,
                node(
                    child=plan,
                    keys=expr.keys,
                    computes=expr.computes,
                    est_rows=group.est_rows,
                    est_cost=plan.est_cost + local,
                ),
            )

    def _filter(
        self, plan: PhysicalPlan, rows: float, conjuncts: Sequence[Expr]
    ) -> Tuple[PhysicalPlan, float]:
        """``(plan, rows)`` with a filter on ``conjuncts`` stacked on top of
        ``plan``, whose output is priced as ``rows``; unchanged when there
        are none."""
        if not conjuncts:
            return plan, rows
        cost = plan.est_cost + self.cost_model.filter(rows, len(conjuncts))
        selectivity = 1.0
        for conjunct in conjuncts:
            selectivity *= self.estimator.conjunct_selectivity(conjunct)
        rows = max(rows * selectivity, 1.0)
        return PhysFilter(plan, tuple(conjuncts), est_rows=rows, est_cost=cost), rows

    def _substitute_plan(
        self, candidate: CandidateCse, spec: ConsumerSpec, group: Group
    ) -> PhysicalPlan:
        rows = candidate.definition.est_rows
        plan: PhysicalPlan = PhysSpoolRead(
            cse_id=candidate.cse_id,
            column_map=spec.column_map,
            est_rows=rows,
            est_cost=candidate.read_cost,
        )
        plan, rows = self._filter(plan, rows, spec.residual)
        if spec.needs_reagg:
            plan = PhysHashAgg(
                child=plan,
                keys=spec.reagg_keys or (),
                computes=spec.reagg_computes or (),
                est_rows=group.est_rows,
                est_cost=plan.est_cost + self.cost_model.aggregate(
                    rows, group.est_rows, len(spec.reagg_computes or ())
                ),
            )
        return plan

    # ------------------------------------------------------------------
    # Per-top finalization
    # ------------------------------------------------------------------

    def _finish(
        self, plan: PhysicalPlan, rows: float, having, output, order_by
    ) -> PhysicalPlan:
        """The shape every top ends in: HAVING, final projection, ORDER BY,
        each priced on ``rows``, the estimate for what ``plan`` emits."""
        plan, rows = self._filter(plan, rows, having)
        plan = PhysProject(
            plan,
            output,
            est_rows=rows,
            est_cost=plan.est_cost + self.cost_model.project(rows, len(output)),
        )
        if order_by:
            plan = PhysSort(
                plan,
                tuple(order_by),
                est_rows=rows,
                est_cost=plan.est_cost + self.cost_model.sort(rows),
            )
        return plan

    def finalized_top(
        self, tag: str, payload, top: Group, ctx: PassContext
    ) -> Tuple[FrozenSet[str], PlanSet]:
        """One top's relevant ids and plan set with per-query finalization
        (HAVING, final projection, ORDER BY) already applied — once per
        profile here, not per pair in root assembly's fold.

        Extended queries (surviving outer/semi/anti extensions) fold their
        extension tops' plan sets into the core's here, so the relevant ids
        are the union over the core and every extension top."""
        run = self.run
        ext_entries: Sequence[Tuple[JoinExtension, Group]] = ()
        if tag == "query" and payload.extensions:
            ext_entries = run.ext_tops[payload.name]
        relevant = relevant_ids(run, top, ctx)
        for _ext, ext_top in ext_entries:
            relevant = relevant | relevant_ids(run, ext_top, ctx)
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
                    plan, top.est_rows, having, block.output, order_by
                )
                for profile, plan in self.optimize_group(top, ctx).items()
            }
        return relevant, finalized

    def _finalize_extended_query(
        self,
        query: BoundQuery,
        top: Group,
        ext_entries: Sequence[Tuple[JoinExtension, Group]],
        ctx: PassContext,
    ) -> PlanSet:
        """Plan set for a query with surviving join extensions.

        The core and each extension block were optimized as independent
        groups (each can read spools on its own); here their plan sets are
        cross-merged profile-wise, the extension joins stitched on top of
        the core in binder order, and the post-join shape (3VL filters,
        aggregation, HAVING, projection, ORDER BY) applied above."""
        # profile -> (plan, the rows its output is priced on)
        combined: Dict[Profile, Tuple[PhysicalPlan, float]] = {
            profile: (plan, top.est_rows)
            for profile, plan in self.optimize_group(top, ctx).items()
        }
        # Columns flowing up the stitched join chain: the core's outputs
        # plus every preceding left_outer extension's (null-extended)
        # outputs. Semi/anti joins pass the running set through unchanged.
        running_outputs = tuple(top.required_outputs)
        merge = self.run.profiles.merge
        for ext, ext_top in ext_entries:
            outputs = running_outputs
            if ext.kind == "left_outer":
                outputs = outputs + tuple(ext_top.required_outputs)
            ext_set = self.optimize_group(ext_top, ctx)
            folded: Dict[Profile, Tuple[PhysicalPlan, float]] = {}
            for profile0, (plan0, rows0) in combined.items():
                out_rows = _ext_join_rows(ext.kind, rows0)
                local = self.cost_model.hash_join(
                    min(rows0, ext_top.est_rows),
                    max(rows0, ext_top.est_rows),
                    out_rows,
                    0,
                )
                for profile1, plan1 in ext_set.items():
                    profile = merge(profile0, profile1)
                    plan = PhysHashJoin(
                        left=plan0,
                        right=plan1,
                        keys=tuple(ext.keys),
                        residual=(),
                        outputs=outputs,
                        est_rows=out_rows,
                        join_type=ext.kind,
                        est_cost=plan0.est_cost + plan1.est_cost + local,
                    )
                    entry = folded.get(profile)
                    if entry is None or plan.est_cost < entry[0].est_cost:
                        folded[profile] = (plan, out_rows)
            combined = folded
            running_outputs = outputs

        post = query.post
        assert post is not None
        finalized: PlanSet = {}
        for profile, (plan, rows) in combined.items():
            plan, rows = self._filter(plan, rows, post.filters)
            if post.has_groupby:
                computes = direct_computes(post.aggregates)
                groups = self.estimator.group_rows(rows, post.group_keys)
                plan = PhysHashAgg(
                    child=plan,
                    keys=tuple(post.group_keys),
                    computes=computes,
                    est_rows=groups,
                    est_cost=plan.est_cost
                    + self.cost_model.aggregate(rows, groups, len(computes)),
                )
                rows = groups
            finalized[profile] = self._finish(
                plan, rows, post.having, post.output, query.order_by
            )
        return finalized
