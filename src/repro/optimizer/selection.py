"""Step 3: which candidate CSEs to enable (paper §5.3; Roy et al., cs/9910021).

One entry point, :func:`select`, drives the optimizer through one callback —
``run_pass(enabled ids) -> (cost, bundle, used ids)`` — and returns the
cheapest ``(cost, bundle)`` it saw. It knows nothing else about the engine,
so a strategy can be unit-tested against a synthetic cost surface without
building a plan. Two strategies differ only in the order subsets are tried:

**``"paper"`` — subset enumeration.** With several candidates, optimizing
once with all of them enabled can prematurely prune plans (Example 11), so
the optimizer re-runs with different enabled subsets. Naively that is
``2^N − 1`` optimizations; the paper's Propositions 5.4–5.6 prune the space
using the *competing / independent* relation over the candidates'
least-common-ancestor groups (Definition 5.2):

* **Prop 5.4 / 5.5** — after optimizing with set ``S`` whose members ``T``
  are each independent of everything else in ``S``, skip every subset that
  differs from ``S`` only by dropping part of ``T``.
* **Prop 5.6** — if the returned plan used exactly ``S*``, that same plan is
  optimal for ``S*`` too: skip ``S*`` and re-apply Prop 5.5 as if ``S*`` had
  been optimized.

The :class:`SubsetEnumerator` yields subsets in descending size and consumes
result reports to prune what remains.

**``"greedy"`` — benefit-ordered selection.** The pass count of enumeration
grows with the subset lattice, which is exactly what a coordinator-merged
cross-session batch with dozens of candidates cannot afford. Roy et al.'s
greedy algorithm replaces enumeration with *incremental global selection
over the AND-OR DAG*: starting from the empty selection, repeatedly
materialize the candidate whose marginal benefit (cost of the best plan with
the current selection minus cost with the candidate added) is largest, and
stop when no candidate improves the plan. Two of Roy et al.'s optimizations
shape the implementation:

* **Lazy re-evaluation (the "monotonicity heuristic").** Benefits are kept
  in a max-heap seeded with the Definition 5.1 upper bound
  ``n·C_E − (C_E + C_W + n·C_R)``. Popping a stale entry re-evaluates it
  against the *current* selection and pushes it back; a popped entry that
  is already fresh is the true maximum (assuming benefits shrink as the
  selection grows — the same monotonicity Roy et al. exploit) and is
  accepted without touching the rest of the heap. In the common case each
  accepted candidate costs one or two optimization passes, so the total
  pass count is near-linear in the number of selected candidates.
* **Incremental passes are cheap.** Each evaluation reuses the engine's
  §5.4 optimization-history caches: enabling one more candidate
  re-optimizes only the groups whose footprints intersect it, so a greedy
  pass touches a sliver of what a fresh enumeration pass would.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..cse.candidates import CandidateCse
from ..obs import NULL_REGISTRY, MetricsRegistry, active_tracer
from .memo import Memo

#: one optimization pass: enabled ids -> (cost, bundle, used ids).
PassRunner = Callable[[FrozenSet[str]], Tuple[float, object, FrozenSet[str]]]

#: ``cse_strategy="auto"`` switches to greedy selection strictly above this
#: candidate count (what coordinator-merged cross-session batches hit).
GREEDY_THRESHOLD = 12


def select_strategy(configured: str, candidate_count: int) -> Tuple[str, str]:
    """Resolve the configured ``cse_strategy`` to a concrete strategy.

    Returns ``(strategy, reason)`` where ``reason`` is the human-readable
    sentence the ``cse_strategy`` trace event and ``explain --why`` carry."""
    if configured == "paper":
        return "paper", "cse_strategy='paper' (configured)"
    if configured == "greedy":
        return "greedy", "cse_strategy='greedy' (configured)"
    if candidate_count > GREEDY_THRESHOLD:
        return "greedy", (
            f"cse_strategy='auto': {candidate_count} candidates > "
            f"greedy_threshold={GREEDY_THRESHOLD}"
        )
    return "paper", (
        f"cse_strategy='auto': {candidate_count} candidates <= "
        f"greedy_threshold={GREEDY_THRESHOLD}"
    )


def select(
    strategy: str,
    candidates: Sequence[CandidateCse],
    run_pass: PassRunner,
    base_cost: float,
    base_bundle: object,
    memo: Memo,
    max_evaluations: int,
    check_deadline: Callable[[], None],
    registry: MetricsRegistry = NULL_REGISTRY,
) -> Tuple[float, object]:
    """Run Step 3 with ``strategy`` (``"paper"`` or ``"greedy"``).

    ``run_pass`` is called at most ``max_evaluations`` times and
    ``check_deadline`` before each call; the no-CSE plan
    (``base_cost``, ``base_bundle``) is returned when nothing beats it."""
    if strategy == "greedy":
        return greedy_select(
            candidates, base_cost, base_bundle, run_pass,
            max_evaluations, check_deadline, registry,
        )
    enumerator = SubsetEnumerator(candidates, memo, max_evaluations)
    best_cost, best_bundle = base_cost, base_bundle
    while True:
        check_deadline()
        subset = enumerator.next_subset()
        if subset is None:
            return best_cost, best_bundle
        cost, bundle, used = run_pass(subset)
        enumerator.report(subset, used)
        if cost < best_cost:
            best_cost, best_bundle = cost, bundle


# -- the paper's §5.3 enumeration ---------------------------------------------


def competing(first: CandidateCse, second: CandidateCse, memo: Memo) -> bool:
    """Definition 5.2: two candidates compete when one's LCA group is an
    ancestor (or descendant, or the same group) of the other's."""
    lca_a = first.lca_gid
    lca_b = second.lca_gid
    if lca_a == lca_b:
        return True
    group_a = memo.groups[lca_a]
    group_b = memo.groups[lca_b]
    return lca_b in memo.descendants(group_a) or lca_a in memo.descendants(group_b)


class SubsetEnumerator:
    """Yields candidate subsets per §5.3's overall procedure.

    Subsets are generated lazily in descending size (2^N of them in the
    worst case, so they are never materialized); pruning is recorded as
    exclusion predicates — interval rules ``used ⊆ S ⊆ optimized`` and
    Prop-5.5 records — checked as each subset is generated. ``max_optimizations``
    bounds the number of subsets ever issued.
    """

    def __init__(
        self,
        candidates: Sequence[CandidateCse],
        memo: Memo,
        max_optimizations: int = 128,
    ) -> None:
        self.candidates = list(candidates)
        self.memo = memo
        self.max_optimizations = max_optimizations
        ids = sorted(c.cse_id for c in self.candidates)
        self._by_id = {c.cse_id: c for c in self.candidates}
        if len(ids) <= 16:
            self._generator = (
                frozenset(combo)
                for size in range(len(ids), 0, -1)
                for combo in itertools.combinations(ids, size)
            )
        else:
            # Past ~16 candidates the subset lattice is hopeless even to
            # skip through lazily. The usage-profile search already finds
            # the global optimum with everything enabled (DESIGN.md), so the
            # curated sequence — the full set, then leave-one-out sets, then
            # singletons — serves only the ablation studies.
            full = frozenset(ids)
            curated: List[FrozenSet[str]] = [full]
            curated.extend(full - {cid} for cid in ids)
            curated.extend(frozenset([cid]) for cid in ids)
            self._generator = iter(curated)
        #: interval exclusions: skip S with lo ⊆ S ⊆ hi.
        self._intervals: List[tuple] = []
        #: Prop 5.5 records: (optimized, independent T, rest R).
        self._prop55: List[tuple] = []
        self._issued = 0

    def _excluded(self, subset: FrozenSet[str]) -> bool:
        for lo, hi in self._intervals:
            if lo <= subset <= hi:
                return True
        for optimized, independent, rest in self._prop55:
            if (
                subset < optimized
                and rest <= subset
                and subset & independent < independent
            ):
                return True
        return False

    # -- the competing/independent relation ---------------------------------

    def _independent_part(self, subset: FrozenSet[str]) -> FrozenSet[str]:
        """Members of ``subset`` independent of every other member (the set
        ``T`` of Prop 5.5)."""
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

    # -- enumeration protocol -------------------------------------------------

    def next_subset(self) -> Optional[FrozenSet[str]]:
        """The next subset to optimize with, or None when done."""
        if self._issued >= self.max_optimizations:
            return None
        for subset in self._generator:
            if self._excluded(subset):
                continue
            self._issued += 1
            return subset
        return None

    def report(self, optimized: FrozenSet[str], used: FrozenSet[str]) -> None:
        """Record that optimizing with ``optimized`` enabled returned a plan
        using exactly ``used``; prunes remaining subsets per Props 5.4-5.6.

        Beyond the propositions as stated, the *interval rule* applies: the
        plan found under ``optimized`` uses only ``used``, so the same plan
        remains available — and therefore optimal — under every ``S_i`` with
        ``used ⊆ S_i ⊆ optimized``."""
        used = used & optimized
        self._intervals.append((used, optimized))
        self._apply_prop_55(optimized)
        if used != optimized:
            # Prop 5.6: the plan is optimal for `used` as well.
            self._apply_prop_55(used)

    def _apply_prop_55(self, optimized: FrozenSet[str]) -> None:
        """Prop 5.5 (and 5.4 when R = ∅): after optimizing ``S = T ∪ R`` with
        every member of T independent of everything else in S, the subsets
        that differ from S only by dropping part of T are redundant."""
        independent = self._independent_part(optimized)
        if not independent:
            return
        rest = optimized - independent
        self._prop55.append((optimized, independent, rest))


# -- Roy et al.'s greedy selection ----------------------------------------------


def definition_benefit(candidate: CandidateCse) -> float:
    """The Definition 5.1 upper bound on a candidate's benefit.

    With every potential consumer substituting, sharing saves
    ``n·C_E`` recomputations and costs ``C_E + C_W`` once plus ``C_R``
    per consumer. Actual benefits are at most this (consumers may decline
    the substitution), which is what makes it a sound heap seed."""
    n = len(candidate.definition.consumer_groups)
    return (
        n * candidate.body_cost
        - (candidate.initial_cost + n * candidate.read_cost)
    )


def greedy_select(
    candidates: Sequence[CandidateCse],
    base_cost: float,
    base_bundle: object,
    run_pass: PassRunner,
    max_evaluations: int,
    check_deadline: Callable[[], None],
    registry: MetricsRegistry = NULL_REGISTRY,
) -> Tuple[float, object]:
    """Greedy benefit-ordered candidate selection.

    ``run_pass`` performs one optimization with the given candidate ids
    enabled and returns ``(cost, bundle, used_ids)``; it is called at most
    ``max_evaluations`` times. Deterministic: heap ties break on candidate
    id, so equal-benefit candidates are accepted in id order. Each
    acceptance is a ``greedy_pick`` event on the ambient tracer."""
    best_cost, best_bundle = base_cost, base_bundle
    selected: FrozenSet[str] = frozenset()
    #: optimization passes spent (the quantity greedy minimizes).
    evaluations = 0
    #: bumped on every acceptance; heap entries carry the generation their
    #: benefit was computed against (-1 = the Def 5.1 seed bound).
    generation = 0
    #: (negated benefit, cse_id, generation) — a max-heap via negation.
    heap: List[Tuple[float, str, int]] = [
        (-definition_benefit(candidate), candidate.cse_id, -1)
        for candidate in candidates
    ]
    heapq.heapify(heap)
    #: cse_id -> (cost, bundle) of its latest evaluation.
    latest: dict = {}
    while heap and evaluations < max_evaluations:
        check_deadline()
        neg_benefit, cse_id, at_generation = heapq.heappop(heap)
        if cse_id in selected:
            continue
        if at_generation == generation:
            benefit = -neg_benefit
            if benefit <= 0:
                # The freshest maximum does not pay for itself; under
                # benefit monotonicity nothing below it can either.
                break
            selected = selected | {cse_id}
            best_cost, best_bundle = latest[cse_id]
            generation += 1
            active_tracer().event(
                "greedy_pick",
                cse_id=cse_id,
                benefit=round(benefit, 4),
                cost=round(best_cost, 4),
                rank=len(selected),
                evaluations=evaluations,
            )
            continue
        # Stale (seed bound or computed against an older selection):
        # re-evaluate against the current selection and re-queue.
        cost, bundle, _used = run_pass(selected | {cse_id})
        evaluations += 1
        latest[cse_id] = (cost, bundle)
        heapq.heappush(heap, (-(best_cost - cost), cse_id, generation))
    registry.counter("strategy.greedy.evaluations", evaluations)
    registry.counter("strategy.greedy.selected", len(selected))
    return best_cost, best_bundle
