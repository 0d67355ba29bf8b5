"""Oracle for the batch root's settlement: an exhaustive activation search.

``repro.optimizer.assembly.assemble`` settles every root candidate inside
its left fold, by §5.2's rule, right after the last top that can read it.
This module keeps the independent formulation it replaced: fold every top
first, then try each of the 2^k subsets of root-settled candidates as the
set to materialize, with every combination of body plans, and keep the
cheapest plan in which each materialized spool has at least two consumers
(query reads plus reads inside other materialized bodies) and no other
spool is read. It has no fold cap and no combination valve; a body choice
is skipped only when another is no dearer and reads every spool at least
as often, which cannot lose. Exponential in k, so callers keep k small.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, FrozenSet, List, Tuple

from repro.optimizer.search import Search
from repro.optimizer.state import EMPTY_PROFILE, PassContext, Profile, ProfileSpace


def uses(space: ProfileSpace, profile: Profile, cse_id: str) -> int:
    """How often ``profile`` reads ``cse_id``: 0, 1, or 2 (two or more)."""
    once, twice = space.bits(cse_id)
    return bool(profile & once) + bool(profile & twice)


def support(space: ProfileSpace, profile: Profile) -> FrozenSet[str]:
    """The spools a plan with usage ``profile`` reads at least once."""
    return frozenset(cid for cid in space.index if uses(space, profile, cid))


def _dominates(kept: Tuple[Profile, float], entry: Tuple[Profile, float]) -> bool:
    """``kept`` is no dearer and reads every spool at least as often (a
    profile's "read ≥ 1" and "read ≥ 2" bits are counts in unary)."""
    return kept[1] <= entry[1] and entry[0] & ~kept[0] == 0


def reference_root_cost(search: Search, ctx: PassContext) -> float:
    """The cheapest valid batch plan's cost under ``ctx``, by exhaustive
    search over which root candidates to materialize. Reads the search's
    plan sets; tallies nothing."""
    run = search.run
    space = run.profiles
    combined: Dict[Profile, float] = {EMPTY_PROFILE: 0.0}
    for tag, payload, top in run.tops:
        _, finalized = search.finalized_top(tag, payload, top, ctx)
        folded: Dict[Profile, float] = {}
        for profile0, cost0 in combined.items():
            for profile1, plan in finalized.items():
                profile = space.merge(profile0, profile1)
                cost = cost0 + plan.est_cost
                if cost < folded.get(profile, math.inf):
                    folded[profile] = cost
        combined = folded

    body_options: Dict[str, List[Tuple[Profile, float]]] = {}
    for candidate in ctx.root_cses:
        body_top = run.memo.groups[candidate.body_top_gid]
        body_options[candidate.cse_id] = [
            (
                profile,
                search.spool_body(
                    plan, body_top, candidate.definition.outputs
                ).est_cost
                + candidate.write_cost,
            )
            for profile, plan in search.optimize_group(body_top, ctx).items()
        ]

    best = math.inf
    root_ids = sorted(body_options)
    for size in range(len(root_ids) + 1):
        for active_ids in itertools.combinations(root_ids, size):
            active = frozenset(active_ids)
            per_body: List[List[Tuple[Profile, float]]] = []
            for cid in active_ids:
                valid = sorted(
                    (
                        option for option in body_options[cid]
                        if support(space, option[0]) <= active
                    ),
                    key=lambda option: option[1],
                )
                kept: List[Tuple[Profile, float]] = []
                for option in valid:
                    if not any(_dominates(k, option) for k in kept):
                        kept.append(option)
                per_body.append(kept)
            for profile, cost in combined.items():
                if not support(space, profile) <= active:
                    continue
                for combo in itertools.product(*per_body):
                    counts = profile
                    for body_profile, _ in combo:
                        counts = space.merge(counts, body_profile)
                    if all(uses(space, counts, cid) == 2 for cid in active):
                        best = min(best, cost + sum(c for _, c in combo))
    return best
