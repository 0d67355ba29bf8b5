"""The optimizer driver.

Implements the three-step architecture of the paper's Figure 1 on top of the
memo (:mod:`repro.optimizer.memo`):

* **Normal optimization** — exhaustive cost-based search per group
  (:mod:`repro.optimizer.search`), recording per-group cost bounds. Table
  signatures are registered with the CSE manager as groups are created
  (Step 1).
* **Candidate generation** (Step 2, :mod:`repro.optimizer.step2`) — sharable
  signature buckets → join-compatible sets → Algorithm 1 with Heuristics 1-4
  (:mod:`repro.cse.candidates`).
* **CSE optimization** (Step 3) — one root assembly
  (:mod:`repro.optimizer.assembly`) over the search with every candidate
  enabled. The search keeps the best plan per usage profile, so this
  full-set pass already finds the plan §5.3's re-optimization with
  candidate subsets would (DESIGN decision 0); the no-CSE plan is kept
  when it is not cheaper.

The three modules share one explicit :class:`~repro.optimizer.state.OptimizerRun`
built per :meth:`Optimizer.optimize` call; the optimizer itself holds only
its configuration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cse.candidates import CandidateCse
from ..cse.manager import CseManager
from ..errors import OptimizerTimeoutError
from ..logical.blocks import BoundBatch, JoinExtension
from ..logical.simplify import simplify_query
from ..obs import (
    NULL_REGISTRY,
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    use_registry,
    use_tracer,
)
from ..storage.database import Database
from . import step2
from .assembly import assemble
from .cardinality import CardinalityEstimator
from .cost import CostModel
from .memo import Group, Memo
from .options import OptimizerOptions
from .physical import PlanBundle
from .search import Search
from .state import BASE_PASS, OptimizerRun, OptimizerStats

#: Enter the CSE phase only when the batch's estimated cost exceeds this
#: value ("only if the query is expensive", §2.2). 0 admits every batch
#: with a positive estimated cost.
CSE_COST_THRESHOLD = 0.0


@dataclass
class OptimizationResult:
    """What :meth:`Optimizer.optimize` returns: the chosen bundle, stats,
    the candidate CSEs considered, and the no-CSE baseline bundle."""

    bundle: PlanBundle
    stats: OptimizerStats
    candidates: List[CandidateCse] = field(default_factory=list)
    base_bundle: Optional[PlanBundle] = None

    @property
    def est_cost(self) -> float:
        """Estimated cost of the chosen bundle."""
        return self.bundle.est_cost


class Optimizer:
    """Cost-based optimizer with similar-subexpression exploitation."""

    def __init__(
        self,
        database: Database,
        options: Optional[OptimizerOptions] = None,
        cost_model: Optional[CostModel] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        deadline: Optional[float] = None,
    ) -> None:
        self.database = database
        self.options = options or OptimizerOptions()
        self.cost_model = cost_model or CostModel()
        self.estimator = CardinalityEstimator(database)
        self.registry = registry or NULL_REGISTRY
        #: spans, and the decision events of the paper's §4-§5 (see
        #: :mod:`repro.obs.journal`) — installed as the ambient tracer
        #: for the ``cse/`` free functions while an optimization runs.
        self.tracer = tracer or NULL_TRACER
        #: absolute :func:`time.monotonic` deadline for this optimization,
        #: or None. Checked at phase boundaries (never mid-assembly): expiry
        #: raises :class:`~repro.errors.OptimizerTimeoutError`, which the
        #: session treats as "re-optimize without CSEs" — the paper's
        #: always-valid no-sharing baseline.
        self.deadline = deadline

    def _check_deadline(self) -> None:
        """Raise :class:`OptimizerTimeoutError` past the deadline."""
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise OptimizerTimeoutError("optimizer deadline exceeded")

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def optimize(self, batch: BoundBatch) -> OptimizationResult:
        """Run the full three-step optimization of Figure 1 on a batch."""
        return self.optimize_with_run(batch)[0]

    def optimize_with_run(
        self, batch: BoundBatch
    ) -> Tuple[OptimizationResult, OptimizerRun]:
        """:meth:`optimize`, also handing back the run state (memo, consumer
        specs, §5.4 plan-set tables) for callers that inspect how the plan
        was found rather than the plan."""
        with use_registry(self.registry), use_tracer(self.tracer):
            with self.tracer.span("optimize", queries=len(batch.queries)):
                result, run = self._optimize(batch)
        self._publish_stats(result.stats)
        return result, run

    def _publish_stats(self, stats: OptimizerStats) -> None:
        """Mirror the run's stats into the registry as optimizer.* series."""
        registry = self.registry
        if not registry.enabled:
            return
        for name, value in stats.counter_summary().items():
            registry.counter(name, value)
        registry.counter("optimizer.batches")
        # Phase latency distributions (p50/p95/p99 via the exporter).
        registry.observe("optimizer.normal_seconds", stats.normal_time)
        registry.observe("optimizer.cse_seconds", stats.cse_time)
        registry.observe("optimizer.step3_seconds", stats.step3_time)
        registry.observe("optimizer.total_seconds", stats.optimization_time)

    def _build_run(self, batch: BoundBatch, stats: OptimizerStats) -> OptimizerRun:
        """Step 1: simplify the batch, build every block into a fresh memo
        under one root, and register the groups' table signatures."""
        memo = Memo(self.estimator)
        tops: List[Tuple[str, object, Group]] = []
        ext_tops: Dict[str, List[Tuple[JoinExtension, Group]]] = {}
        root_children: List[Group] = []
        for original in batch.queries:
            # Logical simplification: fold provably-reducible outer joins
            # into their core blocks (the null-rejection verdicts are
            # trace events either way).
            query, verdicts = simplify_query(original)
            for ext_id, verdict in verdicts:
                self.tracer.event(
                    "equiv",
                    query=original.name,
                    extension=ext_id,
                    outcome=verdict.outcome,
                    reason=verdict.reason,
                )
            top = memo.build_block(query.block, part_id=query.name)
            tops.append(("query", query, top))
            root_children.append(top)
            ext_entries: List[Tuple[JoinExtension, Group]] = []
            for ext in query.extensions:
                ext_top = memo.build_block(
                    ext.block, part_id=f"{query.name}:{ext.ext_id}"
                )
                ext_entries.append((ext, ext_top))
                root_children.append(ext_top)
            if ext_entries:
                ext_tops[query.name] = ext_entries
            for sid, sub_block in sorted(query.subqueries.items()):
                sub_top = memo.build_block(
                    sub_block, part_id=f"{query.name}:{sid}"
                )
                tops.append(("subquery", (query, sid), sub_top))
                root_children.append(sub_top)
        root = memo.build_root(root_children)
        manager = CseManager()
        manager.register_all(memo.signature_log)
        stats.signature_registrations = manager.registrations
        return OptimizerRun(
            memo=memo,
            tops=tops,
            ext_tops=ext_tops,
            root=root,
            manager=manager,
            stats=stats,
        )

    def _optimize(
        self, batch: BoundBatch
    ) -> Tuple[OptimizationResult, OptimizerRun]:
        start = time.perf_counter()
        stats = OptimizerStats()

        with self.tracer.span("normal_optimization"):
            run = self._build_run(batch, stats)
            memo = run.memo
            search = Search(
                run,
                self.database,
                self.estimator,
                self.cost_model,
                self.options,
                self._check_deadline,
            )
            base_cost, base_bundle = assemble(search, BASE_PASS)
            search.record_bounds()
            stats.est_cost_no_cse = base_cost
            stats.memo_groups = len(memo.groups)
            stats.normal_time = time.perf_counter() - start

        base_result = OptimizationResult(
            bundle=base_bundle, stats=stats, base_bundle=base_bundle
        )

        def finish_base() -> Tuple[OptimizationResult, OptimizerRun]:
            stats.est_cost_final = base_cost
            stats.optimization_time = time.perf_counter() - start
            return base_result, run

        if not self.options.enable_cse:
            return finish_base()
        if base_cost <= CSE_COST_THRESHOLD:
            self.tracer.event(
                "cse_skipped", reason="below_cost_threshold", cost=base_cost
            )
            return finish_base()
        self._check_deadline()

        # --- Step 2: candidate generation -----------------------------------
        with self.tracer.span("candidate_generation"):
            buckets = run.manager.sharable_buckets()
            stats.sharable_buckets = len(buckets)
            if not buckets:
                stats.memo_groups = len(memo.groups)
                return finish_base()

            candidates = step2.generate(search, buckets, base_cost)
            stats.memo_groups = len(memo.groups)
            if not candidates:
                return finish_base()
            stats.candidates_generated = len(candidates)
            stats.candidate_ids = [c.cse_id for c in candidates]
            self.tracer.event(
                "candidates", ids=stats.candidate_ids,
                before_pruning=stats.candidates_before_pruning,
            )

        # --- Step 3: one pass with every candidate enabled ------------------
        with self.tracer.span("cse_optimization"):
            step3_start = time.perf_counter()
            self._check_deadline()
            best_cost, best_bundle = self._run_pass(search, candidates)
            if best_cost >= base_cost:
                best_cost, best_bundle = base_cost, base_bundle
            stats.step3_time = time.perf_counter() - step3_start

        stats.est_cost_final = best_cost
        stats.used_cses = best_bundle.used_cses()
        stats.cse_time = time.perf_counter() - start - stats.normal_time
        stats.optimization_time = time.perf_counter() - start
        self._emit_verdicts(candidates, run)
        result = OptimizationResult(
            bundle=best_bundle,
            stats=stats,
            candidates=candidates,
            base_bundle=base_bundle,
        )
        return result, run

    def _run_pass(
        self, search: Search, candidates: List[CandidateCse]
    ) -> Tuple[float, PlanBundle]:
        """The Step-3 pass: assemble the batch with every candidate
        enabled, and report the pass and its §5.4 reuse to the tracer."""
        run = search.run
        stats = run.stats
        ctx = step2.build_pass_context(run, tuple(candidates))
        stats.cse_optimizations += 1
        computed = set(run.base_plans)
        with self.tracer.span("cse_pass") as span:
            cost, bundle = assemble(search, ctx)
            if span is not None:
                span.attrs["cost"] = round(cost, 2)
                span.attrs["used"] = sorted(bundle.used_cses())
        # Reused: base plan sets the pass read that it did not compute.
        stats.history_groups_reused = len(run.base_hits & computed)
        lookups = stats.history_hits + stats.history_misses
        self.tracer.event(
            "history",
            groups_reused=stats.history_groups_reused,
            groups_recomputed=stats.history_misses,
            planset_hits=stats.history_hits,
            reuse=round(stats.history_hits / lookups, 4) if lookups else 0.0,
        )
        return cost, bundle

    def _emit_verdicts(
        self, candidates: List[CandidateCse], run: OptimizerRun
    ) -> None:
        """Emit the per-candidate §5.1 discard tallies and final verdicts.

        Candidates pruned before costing (Heuristic 4, candidate cap) got
        their verdicts inside :func:`step2.generate`; this covers
        everything that survived into Step 3."""
        tracer = self.tracer
        if not tracer.enabled:
            return
        used = set(run.stats.used_cses)
        for candidate in candidates:
            cid = candidate.cse_id
            discards = run.sc_discards.get(cid, 0)
            if discards:
                tracer.event(
                    "single_consumer", cse_id=cid, discards=discards
                )
            # The §5.1 verdicts over this candidate's consumer matches,
            # e.g. "proved=2, gave_up=1" — lets `explain --why` say a
            # match was *refused*, not merely unprofitable.
            equiv = ", ".join(
                f"{outcome}={count}"
                for outcome, count in sorted(run.match_outcomes[cid].items())
            )
            if cid in used:
                kept, reason = True, "materialized in best plan"
            elif discards:
                kept, reason = False, "single-consumer LCA discard (§5.1)"
            else:
                kept, reason = False, (
                    "sharing never beat recomputation in the full-set pass"
                )
            tracer.event(
                "verdict", cse_id=cid, kept=kept, reason=reason, equiv=equiv
            )
