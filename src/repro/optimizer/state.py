"""What one ``Optimizer.optimize()`` call works on.

:class:`OptimizerRun` is the explicit per-run state the three modules behind
the Figure-1 driver share — the memo search (:mod:`.search`), Step-2
orchestration (:mod:`.step2`) and root assembly (:mod:`.assembly`) — together
with the vocabulary they exchange: usage profiles, plan sets, the per-pass
context, and the §5.4 optimization history.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from ..cse.candidates import CandidateCse
from ..cse.heuristics import PruneTrace
from ..cse.manager import CseManager
from ..cse.matching import ConsumerSpec
from ..logical.blocks import JoinExtension
from ..obs import MetricsRegistry, active_tracer
from .memo import Group, Memo
from .physical import PhysicalPlan

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


#: one group's best plan per usage profile; its cost is ``plan.est_cost``.
PlanSet = Dict[Profile, PhysicalPlan]


@dataclass
class PassContext:
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


#: The pass with nothing enabled: normal optimization, and the standalone
#: costing of candidate bodies. Only ever read.
BASE_PASS = PassContext((), {}, {}, ())


class History:
    """The §5.4 optimization history of one run.

    Per-group plan sets (keyed by gid and the group's candidate footprint ∩
    the enabled set), finalized per-top plan sets and folded assembly
    prefixes stay alive across Step-3 passes, so each pass re-optimizes only
    what its enabled candidates actually changed; the per-pass counters say
    how much that was."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.plan_cache: Dict[Tuple[int, FrozenSet[str]], PlanSet] = {}
        #: which pass created each plan-cache entry (0 = base pass).
        self.cache_pass: Dict[Tuple[int, FrozenSet[str]], int] = {}
        #: (top index, relevant ids) -> finalized per-top plan set.
        self.finalize_cache: Dict[Tuple[int, FrozenSet[str]], Dict] = {}
        #: assembly-prefix key -> folded combined plan set.
        self.fold_cache: Dict[Tuple, Dict] = {}
        self.begin_pass(0)

    def begin_pass(self, index: int) -> None:
        """Reset the per-pass reuse counters (index 0 = base pass)."""
        self.pass_index = index
        self.hits = 0
        self.misses = 0
        self.reused_gids: Set[int] = set()
        self.fold_hits = 0

    def wipe(self) -> None:
        """§5.4 off: forget everything, so the next pass re-optimizes every
        group from scratch — the naive per-subset loop the paper improves
        on."""
        self.plan_cache.clear()
        self.cache_pass.clear()
        self.finalize_cache.clear()
        self.fold_cache.clear()

    def end_pass(
        self, stats: OptimizerStats, subset: FrozenSet[str], seconds: float
    ) -> None:
        """Publish one Step-3 pass's reuse accounting: run stats, the
        per-pass latency histogram, and a ``history`` trace event."""
        reused = len(self.reused_gids)
        stats.history_hits += self.hits
        stats.history_misses += self.misses
        stats.history_groups_reused += reused
        stats.history_tops_folded += self.fold_hits
        self.registry.observe("optimizer.history.pass_seconds", seconds)
        total = self.hits + self.misses
        active_tracer().event(
            "history",
            pass_index=self.pass_index,
            subset=sorted(subset),
            groups_reused=reused,
            groups_recomputed=self.misses,
            planset_hits=self.hits,
            tops_folded=self.fold_hits,
            reuse=round(self.hits / total, 4) if total else 0.0,
            seconds=round(seconds, 6),
        )


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
    #: why that strategy was chosen (the ``cse_strategy`` trace event
    #: carries the same sentence).
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
class OptimizerRun:
    """The state of one optimization run. Built once normal optimization has
    filled the memo; Step 2 then fills the candidate-side fields."""

    memo: Memo
    #: (tag, payload, top group) per query and scalar subquery, in fold order.
    tops: List[Tuple[str, object, Group]]
    #: per query name: (extension, its top group) pairs for the extensions
    #: that survived logical simplification.
    ext_tops: Dict[str, List[Tuple[JoinExtension, Group]]]
    root: Group
    manager: CseManager
    stats: OptimizerStats
    history: History
    #: per-candidate tally of §5.1 single-consumer discards, feeding the
    #: ``single_consumer`` trace events and rejection verdicts.
    sc_discards: Dict[str, int] = field(default_factory=dict)
    #: ``(plan-set or fold-prefix key, candidate id)`` of every settlement
    #: so far: a recomputed one is not tallied again.
    settlements: Set[Tuple[Hashable, str]] = field(default_factory=set)
    #: candidate id -> §5.1 consumer-match outcome -> count, tallied as
    #: Step 2 emits each ``equiv`` event; the ``verdict`` events report it.
    match_outcomes: Dict[str, Counter] = field(
        default_factory=lambda: defaultdict(Counter)
    )
    candidates_by_id: Dict[str, CandidateCse] = field(default_factory=dict)
    #: candidate id -> query-side / body-side (stacked, §5.5) consumer specs.
    specs: Dict[str, List[ConsumerSpec]] = field(default_factory=dict)
    body_specs: Dict[str, List[ConsumerSpec]] = field(default_factory=dict)
    #: candidate id -> gids of every group it can substitute into (query-
    #: and body-side alike): the input of the §5.4 footprints.
    consumer_gids: Dict[str, Set[int]] = field(default_factory=dict)
    #: per-gid candidate footprints (None until Step 2 computes them; the
    #: base pass needs no footprints — nothing is enabled).
    footprints: Optional[List[FrozenSet[str]]] = None
