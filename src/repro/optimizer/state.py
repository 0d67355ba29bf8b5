"""What one ``Optimizer.optimize()`` call works on.

:class:`OptimizerRun` is the explicit per-run state the three modules behind
the Figure-1 driver share — the memo search (:mod:`.search`), Step-2
orchestration (:mod:`.step2`) and root assembly (:mod:`.assembly`) — together
with the vocabulary they exchange: usage profiles, plan sets and the per-pass
context.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..cse.candidates import CandidateCse
from ..cse.manager import CseManager
from ..cse.matching import ConsumerSpec
from ..logical.blocks import JoinExtension
from .memo import Group, Memo
from .physical import PhysicalPlan

#: A usage profile: one int over the run's dense candidate indices
#: (:class:`ProfileSpace`). Bit i means candidate i is read at least once,
#: bit i + N (N candidates) that it is read at least twice; 0 reads nothing.
Profile = int
EMPTY_PROFILE: Profile = 0


class ProfileSpace:
    """The usage-profile encoding of one run, minted by Step 2 over its
    candidates and never seen outside the optimization: plans, events and
    EXPLAIN name candidates by ``cse_id``."""

    def __init__(self, cse_ids: Sequence[str] = ()) -> None:
        self.index = {cse_id: i for i, cse_id in enumerate(cse_ids)}
        #: N: the shift from a candidate's "once" bit to its "twice" bit.
        self.width = len(self.index)
        #: every "once" bit.
        self.low = (1 << self.width) - 1

    def bits(self, cse_id: str) -> Tuple[int, int]:
        """``cse_id``'s "read ≥ 1" and "read ≥ 2" bits."""
        once = 1 << self.index[cse_id]
        return once, once << self.width

    def merge(self, left: Profile, right: Profile) -> Profile:
        """The profile of a plan made of ``left``'s and ``right``'s:
        counts add, capped at two."""
        return left | right | ((left & right & self.low) << self.width)


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


#: The pass with nothing enabled: normal optimization, and the standalone
#: costing of candidate bodies. Only ever read.
BASE_PASS = PassContext((), {}, {}, ())


@dataclass
class OptimizerStats:
    """Everything the paper's experiment tables report."""

    optimization_time: float = 0.0
    normal_time: float = 0.0
    cse_time: float = 0.0
    #: wall time of the Step-3 pass (a part of ``cse_time``, which also
    #: covers Step-2 candidate generation).
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
    #: §5.4 reuse in the Step-3 pass: plan-set lookups answered / computed,
    #: and distinct groups whose plan set the base pass computed.
    history_hits: int = 0
    history_misses: int = 0
    history_groups_reused: int = 0
    used_cses: List[str] = field(default_factory=list)
    candidate_ids: List[str] = field(default_factory=list)
    #: "H1".."H4" -> buckets, consumer sets, consumers, merge stops or
    #: candidates that heuristic removed.
    pruned: Counter = field(default_factory=Counter)
    #: Step 2's work: "consumer_profiles" (consumers put into slot space),
    #: "merge_probes", "merge_benefit_evaluations", "containment_checks".
    work: Counter = field(default_factory=Counter)

    def pruned_per_heuristic(self) -> Dict[str, int]:
        """How many candidates/consumers each heuristic removed."""
        return {key: self.pruned[key] for key in ("H1", "H2", "H3", "H4")}

    def counter_summary(self) -> Dict[str, float]:
        """The stats as flat ``optimizer.*`` and ``cse.*`` counters
        (snapshot naming)."""
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
            "cse.consumer_profiles": self.work["consumer_profiles"],
            "cse.merge_probes": self.work["merge_probes"],
            "cse.merge_benefit_evaluations": self.work["merge_benefit_evaluations"],
            "cse.containment_checks": self.work["containment_checks"],
            "cse.constructions": self.candidates_before_pruning,
            "cse.heuristic2_consumer_drops": self.pruned["H2"],
            "cse.containment_prunes": self.pruned["H4"],
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
    #: §5.4: gid -> plan set computed under :data:`BASE_PASS` (normal
    #: optimization and Step 2's standalone body costing). The Step-3 pass
    #: reads it for every group whose footprint is empty.
    base_plans: Dict[int, PlanSet] = field(default_factory=dict)
    #: gid -> the Step-3 pass's plan set, for groups whose footprint is
    #: not empty.
    step3_plans: Dict[int, PlanSet] = field(default_factory=dict)
    #: gids whose base plan set a Step-3 lookup returned.
    base_hits: Set[int] = field(default_factory=set)
    #: per-candidate tally of §5.1 single-consumer discards, feeding the
    #: ``single_consumer`` trace events and rejection verdicts.
    sc_discards: Dict[str, int] = field(default_factory=dict)
    #: candidate id -> §5.1 consumer-match outcome -> count, tallied as
    #: Step 2 emits each ``equiv`` event; the ``verdict`` events report it.
    match_outcomes: Dict[str, Counter] = field(
        default_factory=lambda: defaultdict(Counter)
    )
    candidates_by_id: Dict[str, CandidateCse] = field(default_factory=dict)
    #: the usage-profile encoding over the candidates (none before Step 2).
    profiles: ProfileSpace = field(default_factory=ProfileSpace)
    #: candidate id -> query-side / body-side (stacked, §5.5) consumer specs.
    specs: Dict[str, List[ConsumerSpec]] = field(default_factory=dict)
    body_specs: Dict[str, List[ConsumerSpec]] = field(default_factory=dict)
    #: candidate id -> gids of every group it can substitute into (query-
    #: and body-side alike): the input of the §5.4 footprints.
    consumer_gids: Dict[str, Set[int]] = field(default_factory=dict)
    #: per-gid candidate footprints (None until Step 2 computes them: the
    #: base pass needs none, and the lookups counted in the §5.4 stats are
    #: those made once they exist — the Step-3 pass's).
    footprints: Optional[List[FrozenSet[str]]] = None
