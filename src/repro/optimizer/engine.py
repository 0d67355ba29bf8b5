"""The optimizer driver.

Implements the three-step architecture of the paper's Figure 1 on top of the
memo (:mod:`repro.optimizer.memo`):

* **Normal optimization** — exhaustive cost-based search per group, recording
  per-group cost bounds. Table signatures are registered with the CSE
  manager as groups are created (Step 1).
* **Candidate generation** (Step 2) — sharable signature buckets →
  join-compatible sets → Algorithm 1 with Heuristics 1-4
  (:mod:`repro.cse.candidates`).
* **CSE optimization** (Step 3) — re-optimization with candidate subsets
  enabled (§5.3, Propositions 5.4-5.6). Spool costing follows §5.2: each
  consumer substitution is charged the usage cost ``C_R`` (plus
  compensation); the *initial* cost ``C_E + C_W`` is charged once, at the
  candidate's least-common-ancestor group, where plans with a single
  consumer are discarded. The bookkeeping uses per-group *usage profiles*:
  the best plan is kept per (candidate → uses ∈ {0, 1, ≥2}) vector, and the
  candidate's dimension is collapsed at its LCA. Candidates consumed inside
  other candidates' bodies (stacked CSEs, §5.5) settle at the batch root.
"""

from __future__ import annotations

import hashlib
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..cse.candidates import CandidateCse, CandidateIdAllocator, generate_candidates
from ..cse.compatibility import ConsumerProfiles, compatibility_groups
from ..cse.enumeration import SubsetEnumerator
from ..cse.heuristics import PruneTrace, heuristic1_keep, heuristic4_filter
from ..cse.manager import CseManager
from ..cse.matching import ConsumerSpec, build_consumer_specs, try_match_consumer
from ..errors import OptimizerError, OptimizerTimeoutError
from ..expr.expressions import ColumnRef, Comparison, ComparisonOp, Expr, Literal
from ..logical.blocks import BoundBatch, BoundQuery, JoinExtension
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
from .cardinality import CardinalityEstimator
from .cost import CostModel
from .greedy import greedy_select, select_strategy
from .memo import (
    AggImplExpr,
    Group,
    JoinExpr,
    Memo,
    RootExpr,
    ScanExpr,
)
from .options import OptimizerOptions
from .physical import (
    PhysFilter,
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

# A usage profile: sorted (cse_id, count) pairs with count in {1, 2};
# absent means 0 and 2 means "two or more".
Profile = Tuple[Tuple[str, int], ...]
EMPTY_PROFILE: Profile = ()


def _profile_get(profile: Profile, cse_id: str) -> int:
    for cid, count in profile:
        if cid == cse_id:
            return count
    return 0


def _profile_without(profile: Profile, cse_id: str) -> Profile:
    return tuple((cid, n) for cid, n in profile if cid != cse_id)


def _profile_add(profile: Profile, cse_id: str, count: int = 1) -> Profile:
    merged = dict(profile)
    merged[cse_id] = min(2, merged.get(cse_id, 0) + count)
    return tuple(sorted(merged.items()))


def _profile_merge(left: Profile, right: Profile) -> Profile:
    if not left:
        return right
    if not right:
        return left
    merged = dict(left)
    for cid, count in right:
        merged[cid] = min(2, merged.get(cid, 0) + count)
    return tuple(sorted(merged.items()))


def _ext_join_rows(kind: str, core_rows: float) -> float:
    """Cardinality of an extension join. The core side is preserved:
    left_outer emits every core row at least once, semi/anti partition the
    core rows (estimated half each)."""
    if kind == "left_outer":
        return max(core_rows, 1.0)
    return max(core_rows * 0.5, 1.0)


def _profile_support(profile: Profile) -> FrozenSet[str]:
    return frozenset(cid for cid, _ in profile)


@dataclass
class PlanChoice:
    """One group's best plan for one usage profile, with its cost."""

    cost: float
    plan: PhysicalPlan


PlanSet = Dict[Profile, PlanChoice]


@dataclass
class QueryPlan:
    """One finalized query plan plus the plans of its scalar subqueries."""

    name: str
    plan: PhysicalPlan
    subquery_plans: Dict[str, PhysicalPlan] = field(default_factory=dict)
    output_names: List[str] = field(default_factory=list)


@dataclass
class PlanBundle:
    """The final batch plan: shared spools (dependency order) + queries."""

    root_spools: Tuple[Tuple[str, PhysicalPlan], ...]
    queries: List[QueryPlan]
    est_cost: float

    def describe(self) -> str:
        """Human-readable text of all plans, spools first."""
        lines: List[str] = []
        for cse_id, body in self.root_spools:
            lines.append(f"Spool {cse_id}:")
            lines.append(body.describe(1))
        for query in self.queries:
            for sid, plan in query.subquery_plans.items():
                lines.append(f"{query.name} subquery {sid}:")
                lines.append(plan.describe(1))
            lines.append(f"{query.name}:")
            lines.append(query.plan.describe(1))
        return "\n".join(lines)

    def fingerprint(self) -> str:
        """Stable short digest of the whole bundle's shape — what the
        history-reuse tests and benchmarks compare to assert that §5.4
        reuse changed the work done, not the plans chosen."""
        text = self.describe().encode("utf-8")
        return hashlib.sha256(text).hexdigest()[:16]

    def used_cses(self) -> List[str]:
        """CSE ids actually materialized by this bundle, in order."""
        used: List[str] = [cid for cid, _ in self.root_spools]
        for query in self.queries:
            plans = [query.plan] + list(query.subquery_plans.values())
            for plan in plans:
                for node in plan.walk():
                    if isinstance(node, PhysSpoolDef):
                        used.extend(cid for cid, _ in node.spools)
        seen: Set[str] = set()
        ordered: List[str] = []
        for cid in used:
            if cid not in seen:
                seen.add(cid)
                ordered.append(cid)
        return ordered


@dataclass
class OptimizerStats:
    """Everything the paper's experiment tables report."""

    optimization_time: float = 0.0
    normal_time: float = 0.0
    cse_time: float = 0.0
    #: wall time inside the Step-3 enumeration loop proper (a subset of
    #: ``cse_time``, which also covers Step-2 candidate generation).
    step3_time: float = 0.0
    est_cost_no_cse: float = 0.0
    est_cost_final: float = 0.0
    candidates_generated: int = 0
    candidates_before_pruning: int = 0
    cse_optimizations: int = 0
    sharable_buckets: int = 0
    signature_registrations: int = 0
    memo_groups: int = 0
    single_consumer_discards: int = 0
    #: §5.4 optimization-history reuse, totalled over Step-3 passes:
    #: plan-set cache hits / computes, distinct groups whose result was
    #: created by an *earlier* pass, and query tops folded from a cached
    #: assembly prefix.
    history_hits: int = 0
    history_misses: int = 0
    history_groups_reused: int = 0
    history_tops_folded: int = 0
    #: which Step-3 strategy ran: ``"paper"`` (subset enumeration),
    #: ``"greedy"`` (Roy et al. benefit-ordered selection), or ``""`` when
    #: Step 3 never ran (no candidates / CSE disabled).
    strategy: str = ""
    #: why that strategy was chosen (mirrors the journal's ``strategy``
    #: event, so EXPLAIN surfaces carry the same sentence).
    strategy_reason: str = ""
    used_cses: List[str] = field(default_factory=list)
    candidate_ids: List[str] = field(default_factory=list)
    prune_trace: Optional[PruneTrace] = None

    def pruned_per_heuristic(self) -> Dict[str, int]:
        """How many candidates/consumers each heuristic removed."""
        trace = self.prune_trace
        if trace is None:
            return {"H1": 0, "H2": 0, "H3": 0, "H4": 0}
        return {
            "H1": len(trace.heuristic1),
            "H2": len(trace.heuristic2),
            "H3": len(trace.heuristic3),
            "H4": len(trace.heuristic4),
        }

    def counter_summary(self) -> Dict[str, float]:
        """The stats as flat ``optimizer.*`` counters (snapshot naming)."""
        summary: Dict[str, float] = {
            "optimizer.memo_groups": self.memo_groups,
            "optimizer.signature_registrations": self.signature_registrations,
            "optimizer.sharable_buckets": self.sharable_buckets,
            "optimizer.candidates_before_pruning": self.candidates_before_pruning,
            "optimizer.candidates_generated": self.candidates_generated,
            "optimizer.cse_passes": self.cse_optimizations,
            "optimizer.single_consumer_discards": self.single_consumer_discards,
            "optimizer.cses_kept": len(self.used_cses),
            "optimizer.history.hits": self.history_hits,
            "optimizer.history.misses": self.history_misses,
            "optimizer.history.groups_reused": self.history_groups_reused,
            "optimizer.history.tops_folded": self.history_tops_folded,
        }
        for key, count in self.pruned_per_heuristic().items():
            summary[f"optimizer.pruned_{key.lower()}"] = count
        return summary


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


@dataclass
class _PassContext:
    """State for one optimization pass with a fixed enabled candidate set."""

    enabled: Tuple[CandidateCse, ...]
    #: consumer group gid -> [(candidate, spec)] substitutions available.
    substitutions: Dict[int, List[Tuple[CandidateCse, ConsumerSpec]]]
    #: gid -> candidates whose LCA is that group (and are not root-settled).
    closings: Dict[int, List[CandidateCse]]
    #: candidates settled at the batch root (cross-query or stacked).
    root_cses: Tuple[CandidateCse, ...]
    #: ids of the enabled candidates, precomputed once per pass — the
    #: history cache intersects it with a group footprint per group visit.
    enabled_ids: FrozenSet[str] = frozenset()


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
        self._stats = OptimizerStats()

    def _check_deadline(self) -> None:
        """Raise :class:`OptimizerTimeoutError` past the deadline."""
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise OptimizerTimeoutError("optimizer deadline exceeded")

    # -- §5.4 per-pass history bookkeeping ------------------------------

    def _begin_pass(self, index: int) -> None:
        """Reset the per-pass §5.4 reuse counters (index 0 = base pass)."""
        self._pass_index = index
        self._pass_hits = 0
        self._pass_misses = 0
        self._pass_reused_gids: Set[int] = set()
        self._pass_fold_hits = 0

    def _end_pass(self, subset: FrozenSet[str], seconds: float) -> None:
        """Publish one Step-3 pass's reuse accounting: run stats, the
        per-pass latency histogram, and a journal ``history`` event."""
        stats = self._stats
        hits = self._pass_hits
        misses = self._pass_misses
        reused = len(self._pass_reused_gids)
        stats.history_hits += hits
        stats.history_misses += misses
        stats.history_groups_reused += reused
        stats.history_tops_folded += self._pass_fold_hits
        self.registry.observe("optimizer.history.pass_seconds", seconds)
        total = hits + misses
        self.journal.event(
            "history",
            pass_index=self._pass_index,
            subset=sorted(subset),
            groups_reused=reused,
            groups_recomputed=misses,
            planset_hits=hits,
            tops_folded=self._pass_fold_hits,
            reuse=round(hits / total, 4) if total else 0.0,
            seconds=round(seconds, 6),
        )

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def optimize(self, batch: BoundBatch) -> OptimizationResult:
        """Run the full three-step optimization of Figure 1 on a batch."""
        with use_registry(self.registry), use_journal(self.journal):
            with self.tracer.span("optimize", queries=len(batch.queries)):
                result = self._optimize(batch)
        if self.options.enable_fusion:
            from .fusion import fuse_bundle  # local: avoids import cycle

            shared = result.base_bundle is result.bundle
            result.bundle = fuse_bundle(result.bundle)
            if shared:
                result.base_bundle = result.bundle
            elif result.base_bundle is not None:
                result.base_bundle = fuse_bundle(result.base_bundle)
        result.journal = self.journal
        self._publish_stats(result.stats)
        return result

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

    def _optimize(self, batch: BoundBatch) -> OptimizationResult:
        start = time.perf_counter()
        stats = OptimizerStats()
        self._stats = stats
        #: per-candidate tally of §5.1 single-consumer discards, feeding the
        #: journal's ``single_consumer`` events and rejection verdicts.
        self._sc_discards: Dict[str, int] = {}

        with self.tracer.span("normal_optimization"):
            memo = Memo(self.estimator, self.options)
            self._memo = memo
            self._plan_cache: Dict[Tuple[int, FrozenSet[str]], PlanSet] = {}
            self._consumer_gids: Dict[str, Set[int]] = {}
            # --- §5.4 optimization-history state --------------------------
            #: per-gid candidate footprints (None until Step 2 computes them;
            #: the base pass needs no footprints — nothing is enabled).
            self._footprints: Optional[List[FrozenSet[str]]] = None
            #: which pass created each plan-cache entry (0 = base pass).
            self._cache_pass: Dict[Tuple[int, FrozenSet[str]], int] = {}
            #: (top index, relevant ids) -> finalized per-top plan set.
            self._finalize_cache: Dict[Tuple[int, FrozenSet[str]], Dict] = {}
            #: assembly-prefix key -> folded combined plan set.
            self._fold_cache: Dict[Tuple, Dict] = {}
            self._pass_index = 0
            self._begin_pass(0)
            self._tops: List[Tuple[str, object, Group]] = []
            #: per query name: (extension, its top group) pairs for the
            #: extensions that survived logical simplification.
            self._ext_tops: Dict[str, List[Tuple[JoinExtension, Group]]] = {}

            # Logical simplification: fold provably-reducible outer joins
            # into their core blocks (the equivalence checker's verdicts go
            # to the decision journal either way).
            queries: List[BoundQuery] = []
            for query in batch.queries:
                simplified, verdicts = simplify_query(query)
                for ext_id, verdict in verdicts:
                    self.journal.event(
                        "equiv",
                        query=query.name,
                        extension=ext_id,
                        outcome=verdict.outcome,
                        reason=verdict.reason,
                    )
                queries.append(simplified)

            root_children: List[Group] = []
            for query in queries:
                top = memo.build_block(query.block, part_id=query.name)
                self._tops.append(("query", query, top))
                root_children.append(top)
                ext_entries: List[Tuple[JoinExtension, Group]] = []
                for ext in query.extensions:
                    ext_top = memo.build_block(
                        ext.block, part_id=f"{query.name}:{ext.ext_id}"
                    )
                    ext_entries.append((ext, ext_top))
                    root_children.append(ext_top)
                if ext_entries:
                    self._ext_tops[query.name] = ext_entries
                for sid, sub_block in sorted(query.subqueries.items()):
                    sub_top = memo.build_block(
                        sub_block, part_id=f"{query.name}:{sid}"
                    )
                    self._tops.append(("subquery", (query, sid), sub_top))
                    root_children.append(sub_top)
            root = memo.build_root(root_children)
            self._root = root

            manager = CseManager()
            manager.register_all(memo.signature_log)
            self._manager = manager
            stats.signature_registrations = manager.registrations

            # --- normal optimization --------------------------------------
            base_ctx = _PassContext((), {}, {}, ())
            base_cost, base_bundle = self._assemble(base_ctx)
            self._record_bounds()
            stats.est_cost_no_cse = base_cost
            stats.memo_groups = len(memo.groups)
            stats.normal_time = time.perf_counter() - start

        base_result = OptimizationResult(bundle=base_bundle, stats=stats)
        base_result.base_bundle = base_bundle

        def finish_base() -> OptimizationResult:
            stats.est_cost_final = base_cost
            stats.optimization_time = time.perf_counter() - start
            return base_result

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
            buckets = manager.sharable_buckets()
            stats.sharable_buckets = len(buckets)
            if not buckets:
                stats.memo_groups = len(memo.groups)
                return finish_base()

            trace = PruneTrace()
            stats.prune_trace = trace
            candidates = self._generate_candidates(
                buckets, base_cost, trace, stats
            )
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
            self.options.cse_strategy,
            len(candidates),
            self.options.greedy_threshold,
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
            if strategy == "greedy":
                best_cost, best_bundle = self._step3_greedy(
                    candidates, base_cost, base_bundle
                )
            else:
                best_cost, best_bundle = self._step3_paper(
                    candidates, memo, base_cost, base_bundle
                )
            stats.step3_time = time.perf_counter() - step3_start

        stats.est_cost_final = best_cost
        stats.used_cses = best_bundle.used_cses()
        stats.cse_time = time.perf_counter() - start - stats.normal_time
        stats.optimization_time = time.perf_counter() - start
        self._journal_verdicts(candidates, stats)
        return OptimizationResult(
            bundle=best_bundle,
            stats=stats,
            candidates=candidates,
            base_bundle=base_bundle,
        )

    def _journal_verdicts(
        self, candidates: List[CandidateCse], stats: OptimizerStats
    ) -> None:
        """Emit the per-candidate §5.1 discard tallies and final verdicts.

        Candidates pruned before costing (Heuristic 4, candidate cap) got
        their verdicts inside :meth:`_generate_candidates`; this covers
        everything that survived into Step 3 enumeration."""
        journal = self.journal
        if not journal.enabled:
            return
        used = set(stats.used_cses)
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
            discards = self._sc_discards.get(cid, 0)
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
                journal.event(
                    "verdict",
                    cse_id=cid,
                    kept=True,
                    reason="materialized in best plan",
                    equiv=equiv,
                )
            elif discards:
                journal.event(
                    "verdict",
                    cse_id=cid,
                    kept=False,
                    reason="single-consumer LCA discard (§5.1)",
                    equiv=equiv,
                )
            else:
                journal.event(
                    "verdict",
                    cse_id=cid,
                    kept=False,
                    reason=(
                        "sharing never beat recomputation in any "
                        "enumerated subset"
                    ),
                    equiv=equiv,
                )

    # ------------------------------------------------------------------
    # Step-3 strategies
    # ------------------------------------------------------------------

    def _run_pass(
        self, candidates: List[CandidateCse], subset: FrozenSet[str]
    ) -> Tuple[float, PlanBundle, FrozenSet[str]]:
        """One Step-3 optimization pass with ``subset`` enabled.

        Shared by both strategies: builds the pass context, keeps the
        §5.4 history accounting honest (or wipes the caches when reuse is
        off), and reports the pass to tracer and journal."""
        stats = self._stats
        enabled = tuple(c for c in candidates if c.cse_id in subset)
        ctx = self._build_pass_context(enabled)
        stats.cse_optimizations += 1
        self._begin_pass(stats.cse_optimizations)
        if not self.options.reuse_history:
            # §5.4 off: forget all history so this pass re-optimizes
            # every group from scratch — the naive per-subset loop
            # the paper improves on.
            self._plan_cache.clear()
            self._cache_pass.clear()
            self._finalize_cache.clear()
            self._fold_cache.clear()
        pass_start = time.perf_counter()
        with self.tracer.span("cse_pass", subset=sorted(subset)) as span:
            cost, bundle = self._assemble(ctx)
            used = frozenset(bundle.used_cses())
            if span is not None:
                span.attrs["cost"] = round(cost, 2)
                span.attrs["used"] = sorted(used)
        self._end_pass(frozenset(subset), time.perf_counter() - pass_start)
        return cost, bundle, used

    def _step3_paper(
        self,
        candidates: List[CandidateCse],
        memo: Memo,
        base_cost: float,
        base_bundle: PlanBundle,
    ) -> Tuple[float, PlanBundle]:
        """The paper's §5.3 subset enumeration (Props 5.4–5.6 pruning)."""
        enumerator = SubsetEnumerator(
            candidates, memo, self.options.max_cse_optimizations
        )
        best_cost = base_cost
        best_bundle = base_bundle
        while True:
            self._check_deadline()
            subset = enumerator.next_subset()
            if subset is None:
                break
            cost, bundle, used = self._run_pass(candidates, subset)
            enumerator.report(subset, used)
            if cost < best_cost:
                best_cost = cost
                best_bundle = bundle
        return best_cost, best_bundle

    def _step3_greedy(
        self,
        candidates: List[CandidateCse],
        base_cost: float,
        base_bundle: PlanBundle,
    ) -> Tuple[float, PlanBundle]:
        """Roy et al.'s greedy benefit-ordered selection (cs/9910021)."""
        outcome = greedy_select(
            candidates,
            base_cost,
            base_bundle,
            lambda subset: self._run_pass(candidates, subset),
            max_evaluations=self.options.max_cse_optimizations,
            journal=self.journal,
            registry=self.registry,
            check_deadline=self._check_deadline,
        )
        return outcome.cost, outcome.bundle

    # ------------------------------------------------------------------
    # Candidate generation (Step 2)
    # ------------------------------------------------------------------

    def _generate_candidates(
        self,
        buckets,
        base_cost: float,
        trace: PruneTrace,
        stats: OptimizerStats,
    ) -> List[CandidateCse]:
        memo = self._memo
        options = self.options
        max_instance = max(
            (t.instance for g in memo.groups for t in g.tables), default=0
        )
        # Body instances go to emitted candidates only, consecutively after
        # the batch's own, so EXPLAIN numbering does not depend on how many
        # merges Algorithm 1 probed.
        instance_allocator = itertools.count(max_instance + 1).__next__
        id_allocator = CandidateIdAllocator()
        profiles = ConsumerProfiles(memo.block_infos)
        journal = self.journal
        definitions = []
        for signature, groups in buckets:
            self._check_deadline()
            if signature.table_count < options.min_cse_tables:
                continue
            if options.enable_heuristics:
                keep = heuristic1_keep(groups, base_cost, options.alpha)
                if journal.enabled:
                    journal.event(
                        "h1",
                        signature=repr(signature),
                        lower_bound_sum=sum(
                            g.lower_bound or 0.0 for g in groups
                        ),
                        threshold=options.alpha * base_cost,
                        alpha=options.alpha,
                        passed=keep,
                    )
                if not keep:
                    trace.heuristic1.append(f"bucket:{signature!r}")
                    continue
            for compatible_set in compatibility_groups(groups, profiles):
                definitions.extend(
                    generate_candidates(
                        compatible_set,
                        profiles,
                        self.estimator,
                        self.cost_model,
                        base_cost,
                        options.alpha,
                        options.enable_heuristics,
                        instance_allocator,
                        id_allocator,
                        trace,
                    )
                )
        stats.candidates_before_pruning = len(definitions)
        journal.event(
            "generation",
            consumer_profiles=len(profiles),
            constructions=len(definitions),
        )
        if options.enable_heuristics:
            before_ids = {d.cse_id for d in definitions}
            definitions = heuristic4_filter(definitions, memo, options.beta, trace)
            for cid in sorted(before_ids - {d.cse_id for d in definitions}):
                journal.event(
                    "verdict",
                    cse_id=cid,
                    kept=False,
                    reason="H4 containment prune",
                )
        if len(definitions) > options.max_candidates:
            definitions.sort(
                key=lambda d: -sum(
                    g.lower_bound or 0.0 for g in d.consumer_groups
                )
            )
            for definition in definitions[options.max_candidates:]:
                journal.event(
                    "verdict",
                    cse_id=definition.cse_id,
                    kept=False,
                    reason="max_candidates cap",
                )
            definitions = definitions[: options.max_candidates]

        # Build candidate bodies into the memo and optimize them standalone.
        candidates: List[CandidateCse] = []
        base_ctx = _PassContext((), {}, {}, ())
        for definition in definitions:
            memo.build_block(definition.block, part_id=f"cse:{definition.cse_id}")
            memo.invalidate_dag_cache()
            body_top = memo.block_tops[definition.block.name]
            body_set = self._optimize_group(body_top, base_ctx)
            body_choice = body_set[EMPTY_PROFILE]
            project_cost = self.cost_model.project(
                body_top.est_rows, len(definition.outputs)
            )
            candidate = CandidateCse(
                definition=definition,
                body_cost=body_choice.cost + project_cost,
                write_cost=self.cost_model.spool_write(
                    definition.est_rows, definition.row_width
                ),
                read_cost=self.cost_model.spool_read(
                    definition.est_rows, definition.row_width
                ),
                body_top_gid=body_top.gid,
            )
            candidates.append(candidate)

        self._candidates_by_id = {c.cse_id: c for c in candidates}
        # Consumer specs (query-side), then stacked consumers (§5.5).
        self._specs: Dict[str, List[ConsumerSpec]] = {}
        self._body_specs: Dict[str, List[ConsumerSpec]] = {}
        for candidate in candidates:
            self._specs[candidate.cse_id] = build_consumer_specs(
                candidate.definition, memo.block_infos
            )
            self._body_specs[candidate.cse_id] = []
        if self.options.enable_stacked:
            self._find_stacked_consumers(candidates)

        # LCA per candidate (Definition 5.1; dynamic narrowing per §5.2).
        memo.invalidate_dag_cache()
        for candidate in candidates:
            specs = self._specs[candidate.cse_id]
            gids = [spec.group.gid for spec in specs]
            self._consumer_gids[candidate.cse_id] = set(gids) | {
                spec.group.gid for spec in self._body_specs[candidate.cse_id]
            }
            if candidate.lifted_to_root or not gids:
                candidate.lca_gid = self._root.gid
            elif self.options.dynamic_lca:
                candidate.lca_gid = memo.least_common_ancestor(gids).gid
            else:
                all_gids = list(candidate.definition.consumer_gids)
                candidate.lca_gid = memo.least_common_ancestor(all_gids).gid
            journal.event(
                "lca",
                cse_id=candidate.cse_id,
                body_cost=candidate.body_cost,
                write_cost=candidate.write_cost,
                read_cost=candidate.read_cost,
                lca_gid=candidate.lca_gid,
                lifted_to_root=(
                    candidate.lifted_to_root
                    or candidate.lca_gid == self._root.gid
                ),
            )
        # §5.4: per-group candidate footprints — for each memo group, the
        # candidate ids whose substitutes can appear anywhere in its
        # subtree. Every Step-3 cache key derives from footprint ∩ enabled.
        for cid, gids in self._consumer_gids.items():
            self._manager.record_consumers(cid, gids)
        self._footprints = memo.candidate_footprints(
            self._manager.consumer_map()
        )
        return candidates

    def _find_stacked_consumers(self, candidates: List[CandidateCse]) -> None:
        """Let candidates be consumed inside other candidates' bodies.

        Restricted to strictly narrower candidates consuming inside wider
        ones, which keeps the stacking relation acyclic (DESIGN.md)."""
        memo = self._memo
        for inner in candidates:
            for outer in candidates:
                if inner is outer:
                    continue
                if not outer.signature_wider_than(inner):
                    continue
                body_name = outer.definition.block.name
                info = memo.block_infos.get(body_name)
                if info is None:
                    continue
                for group in memo.groups:
                    if group.block is None or group.block.name != body_name:
                        continue
                    if group.signature != inner.definition.signature:
                        continue
                    spec = try_match_consumer(inner.definition, group, info)
                    if spec is not None:
                        self._body_specs[inner.cse_id].append(spec)
                        inner.lifted_to_root = True

    # ------------------------------------------------------------------
    # Pass setup
    # ------------------------------------------------------------------

    def _build_pass_context(self, enabled: Tuple[CandidateCse, ...]) -> _PassContext:
        substitutions: Dict[int, List[Tuple[CandidateCse, ConsumerSpec]]] = {}
        closings: Dict[int, List[CandidateCse]] = {}
        root_cses: List[CandidateCse] = []
        enabled_ids = {c.cse_id for c in enabled}
        for candidate in enabled:
            specs = list(self._specs[candidate.cse_id])
            for spec in specs:
                substitutions.setdefault(spec.group.gid, []).append(
                    (candidate, spec)
                )
            for spec in self._body_specs[candidate.cse_id]:
                substitutions.setdefault(spec.group.gid, []).append(
                    (candidate, spec)
                )
            if candidate.lca_gid == self._root.gid or candidate.lifted_to_root:
                root_cses.append(candidate)
            else:
                closings.setdefault(candidate.lca_gid, []).append(candidate)
                # The memo is a DAG: some plan paths from the consumers to
                # the root may bypass the LCA group (e.g. via alternative
                # pre-aggregation joins). Closing again at the owning
                # block's top group — a dominator of every such path — is a
                # no-op for plans already settled at the LCA and guarantees
                # the dimension never leaks to the root.
                lca_group = self._memo.groups[candidate.lca_gid]
                block = lca_group.block
                if block is not None:
                    top = self._memo.block_tops.get(block.name)
                    if top is not None and top.gid != candidate.lca_gid:
                        closings.setdefault(top.gid, []).append(candidate)
        return _PassContext(
            enabled=tuple(enabled),
            substitutions=substitutions,
            closings=closings,
            root_cses=tuple(root_cses),
            enabled_ids=frozenset(enabled_ids),
        )

    # ------------------------------------------------------------------
    # Group optimization (the profile DP)
    # ------------------------------------------------------------------

    def _relevant_ids(self, group: Group, ctx: _PassContext) -> FrozenSet[str]:
        """The enabled candidate ids that can affect ``group``'s plan set:
        the group's §5.4 candidate footprint ∩ the pass's enabled set. Two
        passes agreeing on this set get identical plan sets for the group,
        which is what makes the history cache sound."""
        if not ctx.enabled:
            return frozenset()
        footprints = self._footprints
        if footprints is not None and group.gid < len(footprints):
            return footprints[group.gid] & ctx.enabled_ids
        return self._relevant_ids_slow(group, ctx)

    def _relevant_ids_slow(
        self, group: Group, ctx: _PassContext
    ) -> FrozenSet[str]:
        """Footprint-free fallback (and the cross-check oracle the tests
        use): intersect each candidate's consumer gids with the group's
        descendant set, recomputed per call."""
        covered = self._memo.descendants(group) | {group.gid}
        relevant = set()
        for candidate in ctx.enabled:
            if self._consumer_gids.get(candidate.cse_id, set()) & covered:
                relevant.add(candidate.cse_id)
        return frozenset(relevant)

    def _optimize_group(self, group: Group, ctx: _PassContext) -> PlanSet:
        relevant = self._relevant_ids(group, ctx)
        cache_key = (group.gid, relevant)
        cached = self._plan_cache.get(cache_key)
        if cached is not None:
            self._pass_hits += 1
            if self._cache_pass.get(cache_key, 0) < self._pass_index:
                self._pass_reused_gids.add(group.gid)
            return cached
        self._pass_misses += 1
        # Reused paths return above without this check, so it must sit on
        # the compute path to keep the governor's deadline live per group.
        self._check_deadline()

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
                raise OptimizerError("root group must go through _assemble()")

        # Consumer substitution (§5.1): spool read + compensation.
        for candidate, spec in ctx.substitutions.get(group.gid, ()):
            cost, plan = self._substitute_plan(candidate, spec, group)
            if self.options.cost_mode == "naive_split":
                consumer_count = max(
                    1, len(self._specs[candidate.cse_id])
                    + len(self._body_specs[candidate.cse_id])
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
        self._plan_cache[cache_key] = plans
        self._cache_pass[cache_key] = self._pass_index
        return plans

    def _close_candidate(self, plans: PlanSet, candidate: CandidateCse) -> PlanSet:
        closed: PlanSet = {}
        body_plan = self._body_plan_standalone(candidate)
        for profile, choice in plans.items():
            uses = _profile_get(profile, candidate.cse_id)
            if uses == 1:
                # §5.2: a plan using the spool exactly once at its LCA can
                # never beat recomputation — discard it (and count it, so
                # EXPLAIN ANALYZE and the decision journal can report how
                # often the rule fired, and against which candidate).
                self._stats.single_consumer_discards += 1
                cid = candidate.cse_id
                self._sc_discards[cid] = self._sc_discards.get(cid, 0) + 1
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
        left_set = self._optimize_group(expr.left, ctx)
        right_set = self._optimize_group(expr.right, ctx)
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
        child_set = self._optimize_group(expr.input_group, ctx)
        local = self.cost_model.aggregate(
            expr.input_group.est_rows, group.est_rows, len(expr.computes)
        )
        for profile, choice in child_set.items():
            plan = PhysHashAgg(
                child=choice.plan,
                keys=expr.keys,
                computes=expr.computes,
                est_rows=group.est_rows,
            )
            offer(profile, choice.cost + local, plan)

    def _substitute_plan(
        self, candidate: CandidateCse, spec: ConsumerSpec, group: Group
    ) -> Tuple[float, PhysicalPlan]:
        rows = candidate.definition.est_rows
        plan: PhysicalPlan = PhysSpoolRead(
            cse_id=candidate.cse_id,
            column_map=spec.column_map,
            est_rows=rows,
        )
        cost = candidate.read_cost
        if spec.residual:
            selectivity = 1.0
            for conjunct in spec.residual:
                selectivity *= self.estimator.selectivity(conjunct)
            out_rows = max(rows * selectivity, 1.0)
            cost += self.cost_model.filter(rows, len(spec.residual))
            plan = PhysFilter(plan, spec.residual, est_rows=out_rows)
            rows = out_rows
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
    # Root assembly
    # ------------------------------------------------------------------

    def _record_bounds(self) -> None:
        """After the base pass, copy optimal costs into per-group bounds."""
        for group in self._memo.groups:
            if group.kind == "root":
                continue
            cached = self._plan_cache.get((group.gid, frozenset()))
            if cached and EMPTY_PROFILE in cached:
                cost = cached[EMPTY_PROFILE].cost
                group.lower_bound = cost
                group.upper_bound = cost

    def _finalize_query(
        self, query: BoundQuery, top: Group, choice: PlanChoice
    ) -> Tuple[float, PhysicalPlan]:
        rows = top.est_rows
        cost = choice.cost
        plan = choice.plan
        block = query.block
        if block.having:
            cost += self.cost_model.filter(rows, len(block.having))
            selectivity = 1.0
            for conjunct in block.having:
                selectivity *= self.estimator.selectivity(conjunct)
            rows = max(rows * selectivity, 1.0)
            plan = PhysFilter(plan, tuple(block.having), est_rows=rows)
        cost += self.cost_model.project(rows, len(block.output))
        plan = PhysProject(plan, block.output, est_rows=rows)
        if query.order_by:
            cost += self.cost_model.sort(rows)
            plan = PhysSort(plan, tuple(query.order_by), est_rows=rows)
        return cost, plan

    def _finalize_subquery(
        self, block_top: Group, block, choice: PlanChoice
    ) -> Tuple[float, PhysicalPlan]:
        rows = block_top.est_rows
        cost = choice.cost + self.cost_model.project(rows, len(block.output))
        plan = PhysProject(choice.plan, block.output, est_rows=rows)
        return cost, plan

    def _finalized_top(
        self, idx: int, tag: str, payload, top: Group, ctx: _PassContext
    ) -> Tuple[
        FrozenSet[str], Dict[Profile, Tuple[float, PhysicalPlan]]
    ]:
        """One top's plan set with per-query finalization (HAVING, final
        projection, ORDER BY) already applied, as profile -> (cost, plan).

        Cached by (top index, relevant ids): finalization depends only on
        the query block and the top's plan set, and the relevant-ids key
        pins the latter down — so the result is reusable across Step-3
        passes. Hoisting it here also removes the finalize work from the
        |combined| × |child plan set| fold loop of :meth:`_assemble`.

        Extended queries (surviving outer/semi/anti extensions) fold their
        extension tops' plan sets into the core's here, so the relevant-ids
        key is the union over the core and every extension top."""
        ext_entries: Sequence[Tuple[JoinExtension, Group]] = ()
        if tag == "query" and payload.extensions:
            ext_entries = self._ext_tops[payload.name]
        relevant = self._relevant_ids(top, ctx)
        for _ext, ext_top in ext_entries:
            relevant = relevant | self._relevant_ids(ext_top, ctx)
        key = (idx, relevant)
        cached = self._finalize_cache.get(key)
        if cached is not None:
            return relevant, cached
        if ext_entries:
            finalized = self._finalize_extended_query(
                payload, top, ext_entries, ctx
            )
        else:
            child_set = self._optimize_group(top, ctx)
            finalized = {}
            for profile, choice in child_set.items():
                if tag == "query":
                    cost, plan = self._finalize_query(payload, top, choice)
                else:
                    query, sid = payload
                    sub_block = query.subqueries[sid]
                    cost, plan = self._finalize_subquery(top, sub_block, choice)
                finalized[profile] = (cost, plan)
        self._finalize_cache[key] = finalized
        return relevant, finalized

    def _finalize_extended_query(
        self,
        query: BoundQuery,
        top: Group,
        ext_entries: Sequence[Tuple[JoinExtension, Group]],
        ctx: _PassContext,
    ) -> Dict[Profile, Tuple[float, PhysicalPlan]]:
        """Plan set for a query with surviving join extensions.

        The core and each extension block were optimized as independent
        groups (each can read spools on its own); here their plan sets are
        cross-merged profile-wise, the extension joins stitched on top of
        the core in binder order, and the post-join shape (3VL filters,
        aggregation, HAVING, projection, ORDER BY) applied above."""
        from .aggs import direct_computes

        core_set = self._optimize_group(top, ctx)
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
            ext_set = self._optimize_group(ext_top, ctx)
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
        finalized: Dict[Profile, Tuple[float, PhysicalPlan]] = {}
        for profile, (cost, plan, rows) in combined.items():
            if post.filters:
                cost += self.cost_model.filter(rows, len(post.filters))
                selectivity = 1.0
                for conjunct in post.filters:
                    selectivity *= self.estimator.selectivity(conjunct)
                rows = max(rows * selectivity, 1.0)
                plan = PhysFilter(plan, tuple(post.filters), est_rows=rows)
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
            if post.having:
                cost += self.cost_model.filter(rows, len(post.having))
                selectivity = 1.0
                for conjunct in post.having:
                    selectivity *= self.estimator.selectivity(conjunct)
                rows = max(rows * selectivity, 1.0)
                plan = PhysFilter(plan, tuple(post.having), est_rows=rows)
            cost += self.cost_model.project(rows, len(post.output))
            plan = PhysProject(plan, post.output, est_rows=rows)
            if query.order_by:
                cost += self.cost_model.sort(rows)
                plan = PhysSort(plan, tuple(query.order_by), est_rows=rows)
            finalized[profile] = (cost, plan)
        return finalized

    def _assemble(self, ctx: _PassContext) -> Tuple[float, PlanBundle]:
        """Optimize all tops under ``ctx`` and settle root-level CSEs."""
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
        for idx, (tag, payload, top) in enumerate(self._tops):
            self._check_deadline()
            relevant, finalized = self._finalized_top(
                idx, tag, payload, top, ctx
            )
            prefix_key = prefix_key + ((top.gid, relevant),)
            cached_fold = self._fold_cache.get(prefix_key)
            if cached_fold is not None:
                combined = cached_fold
                self._pass_fold_hits += 1
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
            self._fold_cache[prefix_key] = combined

        root_ids = frozenset(c.cse_id for c in ctx.root_cses)
        best: Optional[Tuple[float, Tuple[PhysicalPlan, ...], Tuple]] = None

        if not ctx.root_cses:
            for profile, (cost, plans) in combined.items():
                if _profile_support(profile):
                    continue  # open CSEs with no settlement point: invalid
                if best is None or cost < best[0]:
                    best = (cost, plans, ())
        elif len(ctx.root_cses) <= 8:
            body_options = self._root_body_options(ctx)
            for active_ids in self._root_activation_sets(ctx, combined, body_options):
                active = tuple(
                    c for c in ctx.root_cses if c.cse_id in active_ids
                )
                candidate_best = self._resolve_root_subset(
                    combined, active, active_ids, body_options
                )
                if candidate_best is not None and (
                    best is None or candidate_best[0] < best[0]
                ):
                    best = candidate_best
        else:
            # Very large enabled sets (no-heuristics ablations): greedy
            # per-profile activation instead of the exponential search.
            body_options = self._root_body_options(ctx)
            best = self._resolve_root_greedy(ctx, combined, body_options)

        if best is None:
            raise OptimizerError("root assembly produced no valid plan")
        total_cost, plans, spools = best
        if self.options.cost_mode == "naive_split":
            # Naive-split plans reference spools without settling them at any
            # LCA; attach the bodies at the root so execution works (this is
            # exactly the ablation's pathology: split accounting, no
            # single-consumer discard).
            spools = spools + self._naive_missing_spools(plans, spools)
        bundle = self._build_bundle(total_cost, plans, spools)
        return total_cost, bundle

    def _naive_missing_spools(
        self,
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
        missing = [cid for cid in read if cid not in have]
        extra: List[Tuple[str, PhysicalPlan]] = []
        for cid in missing:
            candidate = self._candidates_by_id[cid]
            extra.append((cid, self._body_plan_standalone(candidate)))
        return tuple(extra)

    def _resolve_root_greedy(
        self, ctx: _PassContext, combined, body_options
    ) -> Optional[Tuple[float, Tuple[PhysicalPlan, ...], Tuple]]:
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

        best: Optional[Tuple[float, Tuple[PhysicalPlan, ...], Tuple]] = None
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
            if any(counts.get(cid, 0) < 2 for cid in active):
                self._stats.single_consumer_discards += 1
                for cid in active:
                    if counts.get(cid, 0) < 2:
                        self._sc_discards[cid] = (
                            self._sc_discards.get(cid, 0) + 1
                        )
                continue
            total = cost + sum(pick[1] for pick in chosen.values())
            if best is None or total < best[0]:
                spools = tuple(
                    (cid, pick[2]) for cid, pick in sorted(chosen.items())
                )
                best = (total, plans, spools)
        return best

    def _root_activation_sets(
        self, ctx: _PassContext, combined, body_options
    ) -> List[FrozenSet[str]]:
        """All activation sets for the exhaustive (≤ 8 root CSEs) search."""
        root_ids = sorted(c.cse_id for c in ctx.root_cses)
        return [
            frozenset(combo)
            for r in range(len(root_ids) + 1)
            for combo in itertools.combinations(root_ids, r)
        ]

    def _root_body_options(self, ctx: _PassContext):
        """Per root CSE: list of (profile, cost incl. C_W, body plan)."""
        options: Dict[str, List[Tuple[Profile, float, PhysicalPlan]]] = {}
        for candidate in ctx.root_cses:
            body_top = self._memo.groups[candidate.body_top_gid]
            body_set = self._optimize_group(body_top, ctx)
            project_cost = self.cost_model.project(
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

    def _resolve_root_subset(
        self,
        combined,
        active: Tuple[CandidateCse, ...],
        active_ids: FrozenSet[str],
        body_options,
    ) -> Optional[Tuple[float, Tuple[PhysicalPlan, ...], Tuple]]:
        """Best assembly using exactly the root candidates in ``active``."""
        best: Optional[Tuple[float, Tuple[PhysicalPlan, ...], Tuple]] = None
        # Body choice options per active candidate, restricted to the active
        # set and Pareto-pruned (an entry dominated in both cost and consumed
        # set can never help).
        per_body: List[List[Tuple[str, Profile, float, PhysicalPlan]]] = []
        for candidate in active:
            valid = [
                (candidate.cse_id, profile, cost, plan)
                for profile, cost, plan in body_options[candidate.cse_id]
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
                valid = all(
                    counts.get(candidate.cse_id, 0) >= 2 for candidate in active
                )
                if not valid:
                    # The root-level instance of §5.2's rule: an activation
                    # whose spool would have fewer than two consumers.
                    self._stats.single_consumer_discards += 1
                    for candidate in active:
                        if counts.get(candidate.cse_id, 0) < 2:
                            cid = candidate.cse_id
                            self._sc_discards[cid] = (
                                self._sc_discards.get(cid, 0) + 1
                            )
                    continue
                total = cost + body_cost
                if best is None or total < best[0]:
                    best = (total, plans, tuple(spools))
        return best

    def _body_plan_standalone(self, candidate: CandidateCse) -> PhysicalPlan:
        body_top = self._memo.groups[candidate.body_top_gid]
        base_ctx = _PassContext((), {}, {}, ())
        body_set = self._optimize_group(body_top, base_ctx)
        return PhysProject(
            body_set[EMPTY_PROFILE].plan,
            candidate.definition.outputs,
            est_rows=body_top.est_rows,
        )

    def _build_bundle(
        self,
        total_cost: float,
        plans: Tuple[PhysicalPlan, ...],
        spools: Tuple[Tuple[str, PhysicalPlan], ...],
    ) -> PlanBundle:
        # Order spools so dependencies (stacked CSEs) materialize first.
        ordered = _toposort_spools(spools)
        queries: List[QueryPlan] = []
        by_query: Dict[str, QueryPlan] = {}
        for (tag, payload, _top), plan in zip(self._tops, plans):
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
        return PlanBundle(
            root_spools=ordered, queries=queries, est_cost=total_cost
        )


def _cap_planset(plans: PlanSet, limit: int) -> PlanSet:
    """Bound a group's profile dictionary, always keeping the base plan."""
    if len(plans) <= limit:
        return plans
    kept = dict(sorted(plans.items(), key=lambda kv: kv[1].cost)[: limit - 1])
    if EMPTY_PROFILE in plans:
        kept[EMPTY_PROFILE] = plans[EMPTY_PROFILE]
    return kept


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
