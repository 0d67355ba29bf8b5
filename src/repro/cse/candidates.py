"""Candidate CSE generation (paper §4.3, Algorithm 1).

For every join-compatible set of sharable expressions we start from one
*trivial* CSE per consumer and greedily merge the pair with the highest
merge benefit Δ (Heuristic 3) until no beneficial merge remains; leftover
trivial CSEs seed further rounds. Heuristics 1 and 2 run before merging,
Heuristic 4 (containment) runs across the candidates of *all* signature
buckets afterwards (the engine calls it).

With heuristics disabled ("no heuristics" mode of the paper's experiment
tables) a single candidate covering every consumer of each compatible set is
produced, reproducing the five candidates of Figure 6.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..obs import active_tracer
from ..optimizer.cost import CostModel
from ..optimizer.memo import Group
from .compatibility import ConsumerProfiles
from .construct import CoveringState, CseDefinition, covering_state
from .heuristics import (
    consumer_lower_bound,
    heuristic1_keep,
    heuristic2_filter,
    merge_benefit,
)


@dataclass
class CandidateCse:
    """A candidate: its definition plus engine-filled optimization state."""

    definition: CseDefinition
    #: Cost components (filled by the engine once the body is optimized):
    body_cost: float = 0.0  # C_E: optimal cost of evaluating the body
    write_cost: float = 0.0  # C_W
    read_cost: float = 0.0  # C_R per consumer
    #: Memo group id of the body's top group.
    body_top_gid: int = -1
    #: Memo group id of the (static) least common ancestor of all consumers.
    lca_gid: int = -1
    #: True when some consumer lives inside another candidate's body
    #: (stacked CSEs, §5.5) — the initial cost is then settled at the root.
    lifted_to_root: bool = False

    @property
    def cse_id(self) -> str:
        """The candidate's identifier (E1, E2, ...)."""
        return self.definition.cse_id

    @property
    def initial_cost(self) -> float:
        """C_E + C_W: charged once per used CSE (§5.2)."""
        return self.body_cost + self.write_cost

    def signature_wider_than(self, other: "CandidateCse") -> bool:
        """Whether this candidate references strictly more tables than
        ``other`` while covering all of its tables — the acyclic stacking
        order used for §5.5."""
        mine = self.definition.signature
        theirs = other.definition.signature
        return (
            mine.covers_tables_of(theirs)
            and mine.table_count > theirs.table_count
        )


class CandidateIdAllocator:
    """Hands out E1, E2, ... in generation order (as in the paper's figures)."""

    def __init__(self) -> None:
        self._next = 1

    def __call__(self) -> str:
        cse_id = f"E{self._next}"
        self._next += 1
        return cse_id


def generate_candidates(
    compatible_set: Sequence[Group],
    profiles: ConsumerProfiles,
    cost_model: CostModel,
    batch_cost: float,
    alpha: float,
    use_heuristics: bool,
    instance_allocator: Callable[[], int],
    id_allocator: Callable[[], str],
    pruned: Optional[Counter] = None,
    work: Optional[Counter] = None,
) -> List[CseDefinition]:
    """Generate candidate CSEs for one join-compatible consumer set.

    Only the candidates returned are materialised (body instances, a
    ``QueryBlock``); every merge probe works on slot-space states.
    ``alpha`` is Heuristic 1's threshold, :data:`heuristics.ALPHA` as
    Step 2 read it for this optimization. ``pruned`` tallies what each
    heuristic removed, ``work`` the merge probes and Heuristic 3 benefit
    evaluations (both :class:`~repro.optimizer.state.OptimizerStats`
    counters)."""
    tracer = active_tracer()
    consumers = sorted(compatible_set, key=lambda g: g.gid)
    if len(consumers) < 2:
        return []

    def labels(state: CoveringState) -> List[str]:
        return [f"g{g.gid}" for g in state.consumer_groups]

    def emit(state: CoveringState) -> CseDefinition:
        definition = state.materialise(id_allocator(), instance_allocator)
        if tracer.enabled:
            tracer.event(
                "candidate",
                cse_id=definition.cse_id,
                signature=repr(definition.signature),
                consumers=labels(state),
                est_rows=definition.est_rows,
            )
        return definition

    def record_h1(members: Sequence[Group], passed: bool) -> None:
        if tracer.enabled:
            tracer.event(
                "h1",
                signature="set:" + ",".join(f"g{g.gid}" for g in members),
                lower_bound_sum=sum(
                    consumer_lower_bound(g) for g in members
                ),
                threshold=alpha * batch_cost,
                alpha=alpha,
                passed=passed,
            )

    if not use_heuristics:
        # One candidate covering all consumers of the compatible set.
        return [emit(covering_state([profiles(g) for g in consumers]))]

    # Heuristic 1 (second application; the engine applied it per signature
    # bucket before compatibility analysis).
    if not heuristic1_keep(consumers, batch_cost, alpha):
        record_h1(consumers, passed=False)
        if pruned is not None:
            pruned["H1"] += 1
        return []

    # Heuristic 2: exclude consumers whose results are too large to share.
    consumers = heuristic2_filter(consumers, cost_model, pruned)
    if len(consumers) < 2:
        return []
    if not heuristic1_keep(consumers, batch_cost, alpha):
        record_h1(consumers, passed=False)
        if pruned is not None:
            pruned["H1"] += 1
        return []
    record_h1(consumers, passed=True)

    # Algorithm 1: greedy merging driven by the benefit Δ (Heuristic 3),
    # starting from one trivial CSE per consumer.
    candidates: List[CseDefinition] = []
    probes = evaluations = 0
    remaining: List[CoveringState] = [
        CoveringState.trivial(profiles(g)) for g in consumers
    ]
    while len(remaining) > 1:
        current = remaining.pop(0)
        merged_any = False
        while remaining:
            best_delta = 0.0
            top_delta = float("-inf")
            best_index = -1
            best_merged: Optional[CoveringState] = None
            probed = len(remaining)
            probes += probed
            for index, other in enumerate(remaining):
                merged = current.merged_with(other.members[0])
                if merged is None:
                    continue
                evaluations += 1
                delta = merge_benefit(merged, [current, other], cost_model)
                if delta > top_delta:
                    top_delta = delta
                if delta > best_delta:
                    best_delta = delta
                    best_index = index
                    best_merged = merged
            if best_merged is None:
                if pruned is not None:
                    pruned["H3"] += 1
                if tracer.enabled:
                    tracer.event(
                        "h3",
                        members=labels(current),
                        delta=(
                            top_delta if top_delta > float("-inf") else 0.0
                        ),
                        merged=False,
                        probed=probed,
                    )
                break
            del remaining[best_index]
            current = best_merged
            merged_any = True
            if tracer.enabled:
                tracer.event(
                    "h3",
                    members=labels(current),
                    delta=best_delta,
                    merged=True,
                    probed=probed,
                )
        if merged_any:
            candidates.append(emit(current))
        # Un-merged seeds are dropped (a trivial CSE with one consumer is
        # never useful); the while loop retries with the rest.
    if work is not None:
        work["merge_probes"] += probes
        work["merge_benefit_evaluations"] += evaluations
    return candidates
