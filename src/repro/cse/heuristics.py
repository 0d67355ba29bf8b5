"""Cost-based candidate pruning heuristics (paper §4.3).

All four heuristics exploit the cost bounds the memo accumulated during
normal optimization; none requires optimizing a candidate's body:

* **Heuristic 1** ("don't bother with cheap expressions"): discard a
  candidate when its consumers' summed lower cost bounds are less than
  ``α`` of the overall query cost (α = 10%).
* **Heuristic 2** ("exclude consumers with huge results"): drop a consumer
  when reading a shared result would cost more than recomputing it, even
  under the most favourable cost split.
* **Heuristic 3** ("merge only when beneficial"): the merge-benefit Δ used by
  Algorithm 1 — merge two candidates only when the merged CSE's total cost
  (evaluation + write + all reads) undercuts using the sources separately.
* **Heuristic 4** ("containment checking"): discard a candidate contained by
  another whose result is not much larger (β = 90%).
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional, Sequence, Tuple, Union

from ..obs import active_registry, active_tracer
from ..optimizer.cost import CostModel
from ..optimizer.memo import Group, Memo
from .construct import CoveringState, CseDefinition

#: Heuristic 1's α: candidates whose consumers' summed lower cost bounds
#: are below ``ALPHA`` × the batch cost are discarded (§4.3, 10%). Step 2
#: reads it at call time (``heuristics.ALPHA``), so the ablation bench can
#: sweep it.
ALPHA = 0.10

#: Heuristic 4's β: a contained candidate is discarded when its estimated
#: result size exceeds ``BETA`` × the containing candidate's (§4.3, 90%).
#: Read at call time like :data:`ALPHA`.
BETA = 0.90

#: What §4.3.3 prices: a constructed candidate, or the slot-space state of
#: one Algorithm 1 is still probing (consumers + estimated size suffice).
SizedCse = Union[CseDefinition, CoveringState]


def consumer_lower_bound(group: Group) -> float:
    """The consumer's lower cost bound (its optimal cost after normal
    optimization; see DESIGN.md on bounds in an exhaustive memo)."""
    return group.lower_bound if group.lower_bound is not None else 0.0


def consumer_upper_bound(group: Group) -> float:
    """The consumer's upper cost bound (see DESIGN.md)."""
    return group.upper_bound if group.upper_bound is not None else float("inf")


def heuristic1_keep(
    consumers: Sequence[Group], batch_cost: float, alpha: float
) -> bool:
    """Heuristic 1: keep only when Σ lower bounds ≥ α × C_Q."""
    total = sum(consumer_lower_bound(g) for g in consumers)
    return total >= alpha * batch_cost


def heuristic2_filter(
    consumers: Sequence[Group],
    cost_model: CostModel,
    pruned: Optional[Counter] = None,
) -> List[Group]:
    """Heuristic 2: drop consumers for which even the best-case shared plan
    (evaluation and write cost split across all N consumers) loses to
    recomputing from scratch:

        C_upper(G_i) < C_R_i + (C_upper(G_i) + C_W_i) / N
    """
    n = len(consumers)
    if n == 0:
        return []
    tracer = active_tracer()
    kept: List[Group] = []
    for group in consumers:
        upper = consumer_upper_bound(group)
        rows = group.est_rows
        width = group.row_width
        c_w = cost_model.spool_write(rows, width)
        c_r = cost_model.spool_read(rows, width)
        keep_cost = c_r + (upper + c_w) / n
        dropped = upper < keep_cost
        if tracer.enabled:
            tracer.event(
                "h2",
                consumer=f"g{group.gid}",
                upper=upper,
                keep_cost=keep_cost,
                dropped=dropped,
            )
        if dropped:
            if pruned is not None:
                pruned["H2"] += 1
            active_registry().counter("cse.heuristic2_consumer_drops")
            continue
        kept.append(group)
    return kept


def cse_usage_cost(
    definition: SizedCse, cost_model: CostModel
) -> Tuple[float, float, float]:
    """(C_E_lower, C_W, C_R) for a constructed candidate.

    ``C_E_lower`` approximates the evaluation cost per §4.3.3: the highest of
    the consumers' lowest cost bounds (evaluating the covering expression can
    be no cheaper than any expression it covers).
    """
    c_e_lower = max(
        (consumer_lower_bound(group) for group in definition.consumer_groups),
        default=0.0,
    )
    c_w = cost_model.spool_write(definition.est_rows, definition.row_width)
    c_r = cost_model.spool_read(definition.est_rows, definition.row_width)
    return c_e_lower, c_w, c_r


def candidate_total_cost(
    definition: SizedCse, cost_model: CostModel
) -> float:
    """The candidate's contribution to the final query per §4.3.3:
    ``C_E + C_W + N × C_R`` (with the lower-bound approximation of C_E)."""
    c_e, c_w, c_r = cse_usage_cost(definition, cost_model)
    return c_e + c_w + len(definition.consumer_groups) * c_r


def merge_benefit(
    merged: SizedCse,
    sources: Sequence[SizedCse],
    cost_model: CostModel,
) -> float:
    """Heuristic 3's Δ: cost of using the source CSEs separately minus the
    cost of using the merged CSE. Merge only when Δ > 0."""
    active_registry().counter("cse.merge_benefit_evaluations")
    separate = sum(candidate_total_cost(s, cost_model) for s in sources)
    return separate - candidate_total_cost(merged, cost_model)


def is_contained(
    inner: CseDefinition, outer: CseDefinition, memo: Memo
) -> bool:
    """Containment (Definition 4.2): the inner candidate's input tables are a
    (multiset) subset of the outer's, and each inner consumer group is a
    descendant of some outer consumer group in the memo DAG."""
    if inner.cse_id == outer.cse_id:
        return False
    if not outer.signature.covers_tables_of(inner.signature):
        return False
    outer_desc = set()
    for group in outer.consumer_groups:
        outer_desc |= memo.descendants(group)
    return all(group.gid in outer_desc for group in inner.consumer_groups)


def heuristic4_filter(
    candidates: Sequence[CseDefinition],
    memo: Memo,
    beta: float,
    pruned: Optional[Counter] = None,
) -> List[CseDefinition]:
    """Heuristic 4: discard a contained candidate E_c when its result size
    exceeds β × the containing candidate's (S_c > β × S_p): the wider
    candidate shares more computation *and* is not meaningfully larger."""
    registry = active_registry()
    tracer = active_tracer()
    kept: List[CseDefinition] = []
    for inner in candidates:
        contained = False
        for outer in candidates:
            if outer is inner:
                continue
            registry.counter("cse.containment_checks")
            if is_contained(inner, outer, memo):
                contained_prunes = inner.est_bytes > beta * outer.est_bytes
                if tracer.enabled:
                    tracer.event(
                        "h4",
                        inner=inner.cse_id,
                        outer=outer.cse_id,
                        inner_bytes=inner.est_bytes,
                        outer_bytes=outer.est_bytes,
                        beta=beta,
                        pruned=contained_prunes,
                    )
                if contained_prunes:
                    contained = True
                    break
        if contained:
            if pruned is not None:
                pruned["H4"] += 1
            registry.counter("cse.containment_prunes")
            continue
        kept.append(inner)
    return kept
