"""Oracles for Step 3: §5.3's subset enumeration and Roy et al.'s greedy
selection (cs/9910021).

The engine's Step 3 is one pass with every candidate enabled, which the
usage-profile search makes the optimum (DESIGN decision 0). The two
strategies it replaced are kept here to check that against. Both see the
engine through ``run_pass(enabled ids) -> (cost, bundle, used ids)``, so
they run on synthetic cost surfaces too; :func:`reference_select` wires
that callback to a real optimization run.

The enumeration tries subsets in descending size and skips those that
Props 5.4–5.6 (over Definition 5.2's competing relation) and the interval
rule (a plan found under S using U is optimal for every U ⊆ S' ⊆ S) make
redundant; past 16 candidates it tries only the full set, the
leave-one-out sets and the singletons. The greedy selection adds the
candidate with the largest marginal benefit until none pays, from a
max-heap seeded with the Definition 5.1 bound and re-evaluated lazily.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro import OptimizerOptions, Session
from repro.cse.candidates import CandidateCse
from repro.cse.construct import CseDefinition
from repro.cse.signature import TableSignature
from repro.obs import NULL_REGISTRY
from repro.optimizer import assembly
from repro.optimizer.engine import Optimizer
from repro.optimizer.search import Search
from repro.optimizer.state import History
from repro.optimizer.step2 import build_pass_context

#: one optimization pass: enabled ids -> (cost, bundle, used ids).
PassRunner = Callable[[FrozenSet[str]], Tuple[float, object, FrozenSet[str]]]


def synthetic_candidate(
    cse_id: str, lca_gid: int = 0, consumers: int = 0, body: float = 0.0,
    write: float = 0.0, read: float = 0.0,
) -> CandidateCse:
    """A candidate with only what the strategies read: its LCA group, its
    consumer count and its Definition 5.1 costs."""
    definition = CseDefinition(
        cse_id=cse_id,
        signature=TableSignature(False, ("t",)),
        block=None,  # type: ignore[arg-type]
        outputs=(),
        consumer_groups=[None] * consumers,  # type: ignore[list-item]
        joint_equalities=(),
        covering_conjuncts=(),
        state=None,  # type: ignore[arg-type]
    )
    candidate = CandidateCse(
        definition=definition, body_cost=body, write_cost=write,
        read_cost=read,
    )
    candidate.lca_gid = lca_gid
    return candidate


# -- the paper's §5.3 enumeration ----------------------------------------------


def competing(first: CandidateCse, second: CandidateCse, memo) -> bool:
    """Definition 5.2: two candidates compete when one's LCA group is an
    ancestor (or descendant, or the same group) of the other's."""
    lca_a, lca_b = first.lca_gid, second.lca_gid
    if lca_a == lca_b:
        return True
    return (
        lca_b in memo.descendants(memo.groups[lca_a])
        or lca_a in memo.descendants(memo.groups[lca_b])
    )


class SubsetEnumerator:
    """Yields candidate subsets in descending size and prunes what remains
    from the reported results (Props 5.4–5.6 and the interval rule), at
    most ``max_optimizations`` of them."""

    def __init__(
        self,
        candidates: Sequence[CandidateCse],
        memo,
        max_optimizations: int = 128,
    ) -> None:
        self.memo = memo
        self.max_optimizations = max_optimizations
        self._by_id = {c.cse_id: c for c in candidates}
        ids = sorted(self._by_id)
        if len(ids) <= 16:
            self._generator = (
                frozenset(combo)
                for size in range(len(ids), 0, -1)
                for combo in itertools.combinations(ids, size)
            )
        else:
            full = frozenset(ids)
            self._generator = iter(
                [full]
                + [full - {cid} for cid in ids]
                + [frozenset([cid]) for cid in ids]
            )
        #: interval exclusions: skip S with lo ⊆ S ⊆ hi.
        self._intervals: List[Tuple[FrozenSet[str], FrozenSet[str]]] = []
        #: Prop 5.5 records: (optimized, independent T, rest R).
        self._prop55: List[Tuple[FrozenSet[str], ...]] = []
        self._issued = 0

    def _excluded(self, subset: FrozenSet[str]) -> bool:
        return any(lo <= subset <= hi for lo, hi in self._intervals) or any(
            subset < optimized
            and rest <= subset
            and subset & independent < independent
            for optimized, independent, rest in self._prop55
        )

    def _independent_part(self, subset: FrozenSet[str]) -> FrozenSet[str]:
        """Members of ``subset`` independent of every other member (Prop
        5.5's ``T``)."""
        independent: Set[str] = set()
        for cid in subset:
            candidate = self._by_id[cid]
            if all(
                other == cid
                or not competing(candidate, self._by_id[other], self.memo)
                for other in subset
            ):
                independent.add(cid)
        return frozenset(independent)

    def next_subset(self) -> Optional[FrozenSet[str]]:
        """The next subset to optimize with, or None when done."""
        if self._issued >= self.max_optimizations:
            return None
        for subset in self._generator:
            if not self._excluded(subset):
                self._issued += 1
                return subset
        return None

    def report(self, optimized: FrozenSet[str], used: FrozenSet[str]) -> None:
        """Optimizing with ``optimized`` returned a plan using ``used``."""
        used = used & optimized
        self._intervals.append((used, optimized))
        self._apply_prop_55(optimized)
        if used != optimized:
            self._apply_prop_55(used)  # Prop 5.6

    def _apply_prop_55(self, optimized: FrozenSet[str]) -> None:
        independent = self._independent_part(optimized)
        if independent:
            self._prop55.append(
                (optimized, independent, optimized - independent)
            )


def enumerate_select(
    candidates: Sequence[CandidateCse],
    base_cost: float,
    base_bundle: object,
    run_pass: PassRunner,
    memo,
    max_optimizations: int = 128,
) -> Tuple[float, object]:
    """The cheapest ``(cost, bundle)`` over the enumerated subsets, the
    no-CSE plan when none beats it."""
    enumerator = SubsetEnumerator(candidates, memo, max_optimizations)
    best = (base_cost, base_bundle)
    while (subset := enumerator.next_subset()) is not None:
        cost, bundle, used = run_pass(subset)
        enumerator.report(subset, used)
        if cost < best[0]:
            best = (cost, bundle)
    return best


# -- Roy et al.'s greedy selection ------------------------------------------------


def definition_benefit(candidate: CandidateCse) -> float:
    """The Definition 5.1 upper bound on a candidate's benefit: every
    potential consumer substitutes, saving ``n·C_E`` and paying
    ``C_E + C_W`` once plus ``C_R`` per consumer."""
    n = len(candidate.definition.consumer_groups)
    return n * candidate.body_cost - (candidate.initial_cost + n * candidate.read_cost)


def greedy_select(
    candidates: Sequence[CandidateCse],
    base_cost: float,
    base_bundle: object,
    run_pass: PassRunner,
    max_evaluations: int = 128,
    picks: Optional[List[Dict[str, object]]] = None,
) -> Tuple[float, object]:
    """Greedy benefit-ordered selection in at most ``max_evaluations``
    passes. Heap ties break on candidate id. Each acceptance is appended
    to ``picks`` as ``{cse_id, benefit, cost, rank, evaluations}``."""
    best_cost, best_bundle = base_cost, base_bundle
    selected: FrozenSet[str] = frozenset()
    evaluations = 0
    #: bumped on every acceptance; an entry carries the generation its
    #: benefit was computed against (-1 = the Def 5.1 seed bound).
    generation = 0
    heap = [(-definition_benefit(c), c.cse_id, -1) for c in candidates]
    heapq.heapify(heap)
    latest: Dict[str, Tuple[float, object]] = {}
    while heap and evaluations < max_evaluations:
        neg_benefit, cse_id, at_generation = heapq.heappop(heap)
        if cse_id in selected:
            continue
        if at_generation == generation:
            if -neg_benefit <= 0:
                break  # the fresh maximum does not pay; nothing below can
            selected = selected | {cse_id}
            best_cost, best_bundle = latest[cse_id]
            generation += 1
            if picks is not None:
                picks.append({
                    "cse_id": cse_id, "benefit": -neg_benefit,
                    "cost": best_cost, "rank": len(selected),
                    "evaluations": evaluations,
                })
            continue
        cost, bundle, _used = run_pass(selected | {cse_id})
        evaluations += 1
        latest[cse_id] = (cost, bundle)
        heapq.heappush(heap, (-(best_cost - cost), cse_id, generation))
    return best_cost, best_bundle


# -- against a real optimization ---------------------------------------------------


def reference_select(
    database,
    sql: str,
    options: OptimizerOptions = OptimizerOptions(),
    strategies: Sequence[str] = ("paper", "greedy"),
    assemble=assembly.assemble,
):
    """The engine's optimization of ``sql`` and, per oracle strategy
    (``"paper"``, ``"greedy"``), ``(cost, used CSEs, [(subset, cost) per
    pass])`` over the same run.

    Each oracle pass assembles the run's memo with its subset enabled,
    through ``assemble``, on a §5.4 history holding only the plan sets of
    groups no candidate reaches: the engine keys every other group's plan
    set by its footprint alone, which is sound only for the two passes the
    engine runs (nothing enabled, everything enabled)."""
    optimizer = Optimizer(database, options)
    result, run = optimizer.optimize_with_run(
        Session(database, options).bind(sql)
    )
    found = {}
    search = Search(
        run, database, optimizer.estimator, optimizer.cost_model, options,
        lambda: None,
    )
    candidate_free = {
        key: plans for key, plans in run.history.plan_cache.items()
        if not key[1]
    }
    base = (result.stats.est_cost_no_cse, result.base_bundle)
    for strategy in strategies:
        passes: List[Tuple[FrozenSet[str], float]] = []

        def run_pass(subset: FrozenSet[str]):
            run.history = History(NULL_REGISTRY)
            run.history.plan_cache.update(candidate_free)
            run.history.cache_pass.update(dict.fromkeys(candidate_free, 0))
            enabled = tuple(c for c in result.candidates if c.cse_id in subset)
            cost, bundle = assemble(search, build_pass_context(run, enabled))
            passes.append((subset, cost))
            return cost, bundle, frozenset(bundle.used_cses())

        if strategy == "paper":
            cost, bundle = enumerate_select(
                result.candidates, *base, run_pass, run.memo
            )
        else:
            cost, bundle = greedy_select(result.candidates, *base, run_pass)
        found[strategy] = (cost, bundle.used_cses(), passes)
    return result, found
