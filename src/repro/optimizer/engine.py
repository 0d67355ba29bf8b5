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
* **CSE optimization** (Step 3, :mod:`repro.optimizer.selection`) —
  re-optimization with candidate subsets enabled (§5.3, Propositions
  5.4-5.6), each pass being one root assembly
  (:mod:`repro.optimizer.assembly`) over the search.

The three modules share one explicit :class:`~repro.optimizer.state.OptimizerRun`
built per :meth:`Optimizer.optimize` call; the optimizer itself holds only
its configuration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..cse.candidates import CandidateCse
from ..cse.manager import CseManager
from ..errors import OptimizerTimeoutError
from ..logical.blocks import BoundBatch, JoinExtension
from ..logical.simplify import simplify_query
from ..obs import (
    NULL_JOURNAL,
    NULL_REGISTRY,
    NULL_TRACER,
    DecisionJournal,
    MetricsRegistry,
    Tracer,
    use_journal,
    use_registry,
)
from ..storage.database import Database
from . import step2
from .assembly import assemble
from .cardinality import CardinalityEstimator
from .cost import CostModel
from .fusion import fuse_bundle
from .memo import Group, Memo
from .options import OptimizerOptions
from .physical import PlanBundle
from .search import Search
from .selection import select, select_strategy
from .state import BASE_PASS, History, OptimizerRun, OptimizerStats


@dataclass
class OptimizationResult:
    """What :meth:`Optimizer.optimize` returns: the chosen bundle, stats,
    the candidate CSEs considered, and the no-CSE baseline bundle."""

    bundle: PlanBundle
    stats: OptimizerStats
    candidates: List[CandidateCse] = field(default_factory=list)
    base_bundle: Optional[PlanBundle] = None
    #: The decision journal active during the run (NULL_JOURNAL when the
    #: caller did not ask for one) — the source for ``explain --why``.
    journal: DecisionJournal = NULL_JOURNAL

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
        journal: Optional[DecisionJournal] = None,
        deadline: Optional[float] = None,
    ) -> None:
        self.database = database
        self.options = options or OptimizerOptions()
        self.cost_model = cost_model or CostModel()
        self.estimator = CardinalityEstimator(database)
        self.registry = registry or NULL_REGISTRY
        self.tracer = tracer or NULL_TRACER
        # `is not None`: an empty journal is falsy (it has a length).
        self.journal = journal if journal is not None else NULL_JOURNAL
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
        specs, §5.4 history) for callers that inspect how the plan was
        found rather than the plan."""
        with use_registry(self.registry), use_journal(self.journal):
            with self.tracer.span("optimize", queries=len(batch.queries)):
                result, run = self._optimize(batch)
        if self.options.enable_fusion:
            shared = result.base_bundle is result.bundle
            result.bundle = fuse_bundle(result.bundle)
            if shared:
                result.base_bundle = result.bundle
            elif result.base_bundle is not None:
                result.base_bundle = fuse_bundle(result.base_bundle)
        result.journal = self.journal
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
        registry.timer_add("optimizer.normal", stats.normal_time)
        registry.timer_add("optimizer.cse", stats.cse_time)
        registry.timer_add("optimizer.step3", stats.step3_time)
        registry.timer_add("optimizer.total", stats.optimization_time)
        # Phase latency distributions (p50/p95/p99 via the exporter). The
        # per-pass Step-3 histogram (optimizer.history.pass_seconds) is
        # observed live inside the enumeration loop.
        registry.observe("optimizer.normal_seconds", stats.normal_time)
        registry.observe("optimizer.cse_seconds", stats.cse_time)
        registry.observe("optimizer.total_seconds", stats.optimization_time)

    def _build_run(self, batch: BoundBatch, stats: OptimizerStats) -> OptimizerRun:
        """Step 1: simplify the batch, build every block into a fresh memo
        under one root, and register the groups' table signatures."""
        memo = Memo(self.estimator, self.options)
        tops: List[Tuple[str, object, Group]] = []
        ext_tops: Dict[str, List[Tuple[JoinExtension, Group]]] = {}
        root_children: List[Group] = []
        for original in batch.queries:
            # Logical simplification: fold provably-reducible outer joins
            # into their core blocks (the equivalence checker's verdicts go
            # to the decision journal either way).
            query, verdicts = simplify_query(original)
            for ext_id, verdict in verdicts:
                self.journal.event(
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
            history=History(self.registry, self.journal),
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
        if base_cost <= self.options.cse_cost_threshold:
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

            candidates = step2.generate(search, self.journal, buckets, base_cost)
            stats.memo_groups = len(memo.groups)
            if not candidates:
                return finish_base()
            stats.candidates_generated = len(candidates)
            stats.candidate_ids = [c.cse_id for c in candidates]
            self.tracer.event(
                "candidates", ids=stats.candidate_ids,
                before_pruning=stats.candidates_before_pruning,
            )

        # --- Step 3: optimization with candidate subsets ----------------------
        strategy, reason = select_strategy(
            self.options.cse_strategy, len(candidates)
        )
        stats.strategy = strategy
        stats.strategy_reason = reason
        self.journal.event(
            "strategy",
            strategy=strategy,
            reason=reason,
            candidates=len(candidates),
        )
        self.tracer.event("cse_strategy", strategy=strategy, reason=reason)
        self.registry.counter(f"strategy.{strategy}.runs")
        with self.tracer.span("cse_optimization", strategy=strategy):
            step3_start = time.perf_counter()
            best_cost, best_bundle = select(
                strategy,
                candidates,
                lambda subset: self._run_pass(search, candidates, subset),
                base_cost,
                base_bundle,
                memo,
                max_evaluations=self.options.max_cse_optimizations,
                check_deadline=self._check_deadline,
                journal=self.journal,
                registry=self.registry,
            )
            stats.step3_time = time.perf_counter() - step3_start

        stats.est_cost_final = best_cost
        stats.used_cses = best_bundle.used_cses()
        stats.cse_time = time.perf_counter() - start - stats.normal_time
        stats.optimization_time = time.perf_counter() - start
        self._journal_verdicts(candidates, run)
        result = OptimizationResult(
            bundle=best_bundle,
            stats=stats,
            candidates=candidates,
            base_bundle=base_bundle,
        )
        return result, run

    def _run_pass(
        self, search: Search, candidates: List[CandidateCse], subset: FrozenSet[str]
    ) -> Tuple[float, PlanBundle, FrozenSet[str]]:
        """One Step-3 optimization pass with ``subset`` enabled — what
        :func:`~repro.optimizer.selection.select` calls back into, whatever
        the strategy: builds the pass context, keeps the §5.4 history
        accounting honest (or wipes the history when reuse is off), and
        reports the pass to tracer and journal."""
        run = search.run
        stats = run.stats
        enabled = tuple(c for c in candidates if c.cse_id in subset)
        ctx = step2.build_pass_context(run, enabled)
        stats.cse_optimizations += 1
        run.history.begin_pass(stats.cse_optimizations)
        if not self.options.reuse_history:
            run.history.wipe()
        pass_start = time.perf_counter()
        with self.tracer.span("cse_pass", subset=sorted(subset)) as span:
            cost, bundle = assemble(search, ctx)
            used = frozenset(bundle.used_cses())
            if span is not None:
                span.attrs["cost"] = round(cost, 2)
                span.attrs["used"] = sorted(used)
        run.history.end_pass(
            stats, frozenset(subset), time.perf_counter() - pass_start
        )
        return cost, bundle, used

    def _journal_verdicts(
        self, candidates: List[CandidateCse], run: OptimizerRun
    ) -> None:
        """Emit the per-candidate §5.1 discard tallies and final verdicts.

        Candidates pruned before costing (Heuristic 4, candidate cap) got
        their verdicts inside :func:`step2.generate`; this covers
        everything that survived into Step 3 enumeration."""
        journal = self.journal
        if not journal.enabled:
            return
        used = set(run.stats.used_cses)
        equiv_tallies: Dict[str, Dict[str, int]] = {}
        for entry in journal.events("equiv"):
            cid = entry.get("cse_id")
            if cid is None:
                continue
            tally = equiv_tallies.setdefault(cid, {})
            outcome = entry.get("outcome", "?")
            tally[outcome] = tally.get(outcome, 0) + 1
        for candidate in candidates:
            cid = candidate.cse_id
            discards = run.sc_discards.get(cid, 0)
            if discards:
                journal.event(
                    "single_consumer", cse_id=cid, discards=discards
                )
            # The equivalence checker's outcomes over this candidate's
            # attempted consumer matches, e.g. "proved=2, gave_up=1" —
            # lets `explain --why` say a match was *refused*, not merely
            # unprofitable.
            equiv = ", ".join(
                f"{outcome}={count}"
                for outcome, count in sorted(equiv_tallies.get(cid, {}).items())
            )
            if cid in used:
                kept, reason = True, "materialized in best plan"
            elif discards:
                kept, reason = False, "single-consumer LCA discard (§5.1)"
            else:
                kept, reason = False, (
                    "sharing never beat recomputation in any enumerated subset"
                )
            journal.event(
                "verdict", cse_id=cid, kept=kept, reason=reason, equiv=equiv
            )
