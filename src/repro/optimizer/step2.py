"""Step 2 of Figure 1: from sharable signature buckets to costed candidates.

Sharable buckets → join-compatible sets → Algorithm 1 with Heuristics 1-4
(:mod:`repro.cse.candidates`); then each surviving definition's body is built
into the memo and optimized standalone, its consumers are view-matched
(query-side, and inside other candidates' bodies — stacked CSEs, §5.5), its
least common ancestor is placed (Definition 5.1, §5.2), and the per-group
candidate footprints that choose each group's §5.4 plan-set table are computed.
:func:`build_pass_context` turns the result into what the Step-3 pass of the
search consumes.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from ..cse import heuristics
from ..cse.candidates import CandidateCse, CandidateIdAllocator, generate_candidates
from ..cse.compatibility import ConsumerProfiles, compatibility_groups
from ..cse.heuristics import heuristic1_keep, heuristic4_filter
from ..cse.matching import ConsumerSpec, match_constructed, match_consumer
from ..cse.signature import TableSignature
from ..equiv import Verdict
from ..obs import active_tracer
from .memo import Group
from .search import Search
from .state import (
    BASE_PASS, EMPTY_PROFILE, OptimizerRun, PassContext, ProfileSpace,
)

#: §5.2's dynamic LCA: compute the least common ancestor over the consumers
#: that can actually substitute (matched), not the full constructed set.
#: The paper's runtime narrowing ("after a consumer's subtree resolves
#: without the CSE, move the LCA down") exists to prune a single-best-plan
#: optimizer's wasted work; the usage-profile search here keeps both
#: alternatives per group, so that effect is subsumed — see DESIGN.md.
#: Static placement (False, the ablation) is always correct too.
DYNAMIC_LCA = True

#: §5.5 stacked CSEs: let candidate bodies consume other candidates. False
#: is the ablation.
STACKED = True

#: Minimum number of referenced tables for a sharable signature bucket.
#: Single-table covering subexpressions save no join work and the paper's
#: prototype does not generate them (Figure 6).
MIN_CSE_TABLES = 2

#: Cap on the candidates that survive Heuristics 1-4; past it, the ones
#: with the largest summed consumer lower bounds are kept (a guard that
#: keeps pathological inputs bounded).
MAX_CANDIDATES = 64


def generate(search: Search, buckets, base_cost: float) -> List[CandidateCse]:
    """Candidate generation over the sharable ``buckets``; fills the
    candidate-side fields of ``search.run`` and returns the candidates.
    Its decisions are point events on the ambient tracer."""
    tracer = active_tracer()
    run = search.run
    memo = run.memo
    stats = run.stats
    use_heuristics = search.options.enable_heuristics
    alpha = heuristics.ALPHA
    max_instance = max(
        (t.instance for g in memo.groups for t in g.tables), default=0
    )
    # Body instances go to emitted candidates only, consecutively after
    # the batch's own, so EXPLAIN numbering does not depend on how many
    # merges Algorithm 1 probed.
    instance_allocator = itertools.count(max_instance + 1).__next__
    id_allocator = CandidateIdAllocator()
    profiles = ConsumerProfiles(memo.block_infos, search.estimator)
    definitions = []
    for signature, groups in buckets:
        search.check_deadline()
        if signature.table_count < MIN_CSE_TABLES:
            continue
        if use_heuristics:
            keep = heuristic1_keep(groups, base_cost, alpha)
            if tracer.enabled:
                tracer.event(
                    "h1",
                    signature=repr(signature),
                    lower_bound_sum=sum(
                        g.lower_bound or 0.0 for g in groups
                    ),
                    threshold=alpha * base_cost,
                    alpha=alpha,
                    passed=keep,
                )
            if not keep:
                stats.pruned["H1"] += 1
                continue
        for compatible_set in compatibility_groups(groups, profiles):
            definitions.extend(
                generate_candidates(
                    compatible_set,
                    profiles,
                    search.cost_model,
                    base_cost,
                    alpha,
                    use_heuristics,
                    instance_allocator,
                    id_allocator,
                    stats.pruned,
                    stats.work,
                )
            )
    stats.candidates_before_pruning = len(definitions)
    stats.work["consumer_profiles"] += len(profiles)
    tracer.event(
        "generation",
        consumer_profiles=len(profiles),
        constructions=len(definitions),
    )
    if use_heuristics:
        before_ids = {d.cse_id for d in definitions}
        definitions = heuristic4_filter(
            definitions, memo, heuristics.BETA, stats.pruned, stats.work
        )
        for cid in sorted(before_ids - {d.cse_id for d in definitions}):
            tracer.event(
                "verdict",
                cse_id=cid,
                kept=False,
                reason="H4 containment prune",
            )
    if len(definitions) > MAX_CANDIDATES:
        definitions.sort(
            key=lambda d: -sum(
                g.lower_bound or 0.0 for g in d.consumer_groups
            )
        )
        for definition in definitions[MAX_CANDIDATES:]:
            tracer.event(
                "verdict",
                cse_id=definition.cse_id,
                kept=False,
                reason="max_candidates cap",
            )
        definitions = definitions[:MAX_CANDIDATES]

    # Build candidate bodies into the memo and optimize them standalone.
    candidates: List[CandidateCse] = []
    cost_model = search.cost_model
    for definition in definitions:
        memo.build_block(definition.block, part_id=f"cse:{definition.cse_id}")
        body_top = memo.block_tops[definition.block.name]
        body = search.spool_body(
            search.optimize_group(body_top, BASE_PASS)[EMPTY_PROFILE],
            body_top,
            definition.outputs,
        )
        candidate = CandidateCse(
            definition=definition,
            body_cost=body.est_cost,
            write_cost=cost_model.spool_write(
                definition.est_rows, definition.row_width
            ),
            read_cost=cost_model.spool_read(
                definition.est_rows, definition.row_width
            ),
            body_top_gid=body_top.gid,
        )
        candidates.append(candidate)

    run.candidates_by_id = {c.cse_id: c for c in candidates}
    run.profiles = ProfileSpace([c.cse_id for c in candidates])
    # Consumer specs (query-side), then stacked consumers (§5.5).
    for candidate in candidates:
        specs = run.specs[candidate.cse_id] = []
        for group, verdict, spec in match_constructed(candidate.definition):
            _record_match(run, candidate.cse_id, group, verdict)
            if spec is not None:
                specs.append(spec)
        run.body_specs[candidate.cse_id] = []
    if STACKED:
        _find_stacked_consumers(run, candidates, profiles)
    # Matching is done. Definitions outlive the optimization in cached
    # plans; its id space (and the database its estimator reads) must not.
    for candidate in candidates:
        candidate.definition.state = None

    # LCA per candidate (Definition 5.1; dynamic narrowing per §5.2).
    for candidate in candidates:
        gids = [spec.group.gid for spec in run.specs[candidate.cse_id]]
        run.consumer_gids[candidate.cse_id] = set(gids) | {
            spec.group.gid for spec in run.body_specs[candidate.cse_id]
        }
        if candidate.lifted_to_root or not gids:
            candidate.lca_gid = run.root.gid
        elif DYNAMIC_LCA:
            candidate.lca_gid = memo.least_common_ancestor(gids).gid
        else:
            all_gids = list(candidate.definition.consumer_gids)
            candidate.lca_gid = memo.least_common_ancestor(all_gids).gid
        tracer.event(
            "lca",
            cse_id=candidate.cse_id,
            body_cost=candidate.body_cost,
            write_cost=candidate.write_cost,
            read_cost=candidate.read_cost,
            lca_gid=candidate.lca_gid,
            lifted_to_root=(
                candidate.lifted_to_root
                or candidate.lca_gid == run.root.gid
            ),
        )
    # §5.4: per-group candidate footprints — for each memo group, the
    # candidate ids whose substitutes can appear anywhere in its
    # subtree. A group whose footprint is empty keeps its base plan set
    # in the Step-3 pass.
    run.footprints = memo.candidate_footprints(run.consumer_gids)
    return candidates


def _record_match(
    run: OptimizerRun, cse_id: str, group: Group, verdict: Verdict
) -> None:
    """Tally one §5.1 consumer match on the run (the candidate's
    ``verdict`` event reports the tally) and emit its ``equiv`` event."""
    run.match_outcomes[cse_id][verdict.outcome] += 1
    active_tracer().event(
        "equiv",
        cse_id=cse_id,
        consumer=f"g{group.gid}",
        outcome=verdict.outcome,
        reason=verdict.reason,
    )


def _find_stacked_consumers(
    run: OptimizerRun, candidates: List[CandidateCse], profiles: ConsumerProfiles
) -> None:
    """Let candidates be consumed inside other candidates' bodies.

    Restricted to strictly narrower candidates consuming inside wider
    ones, which keeps the stacking relation acyclic (DESIGN.md). A body
    group of the inner candidate's signature is profiled into the same id
    space Algorithm 1 used (slot templates are instance-free), so it is
    matched like a constructed consumer. This is a search, so only the
    matches it finds are recorded. Body groups are looked up by (body
    block name, signature), in gid order."""
    by_block: Dict[Tuple[str, TableSignature], List[Group]] = {}
    for group in run.memo.groups:
        if group.block is not None:
            key = (group.block.name, group.signature)
            by_block.setdefault(key, []).append(group)
    for inner in candidates:
        for outer in candidates:
            if inner is outer or not outer.signature_wider_than(inner):
                continue
            key = (outer.definition.block.name, inner.definition.signature)
            for group in by_block.get(key, ()):
                verdict, spec = match_consumer(inner.definition, profiles(group))
                if spec is not None:
                    _record_match(run, inner.cse_id, group, verdict)
                    run.body_specs[inner.cse_id].append(spec)
                    inner.lifted_to_root = True


def build_pass_context(
    run: OptimizerRun, enabled: Tuple[CandidateCse, ...]
) -> PassContext:
    """The substitutions, LCA closings and root-settled candidates of one
    pass with ``enabled`` switched on."""
    substitutions: Dict[int, List[Tuple[CandidateCse, ConsumerSpec]]] = {}
    closings: Dict[int, List[CandidateCse]] = {}
    root_cses: List[CandidateCse] = []
    for candidate in enabled:
        for spec in run.specs[candidate.cse_id] + run.body_specs[candidate.cse_id]:
            substitutions.setdefault(spec.group.gid, []).append(
                (candidate, spec)
            )
        if candidate.lca_gid == run.root.gid or candidate.lifted_to_root:
            root_cses.append(candidate)
        else:
            closings.setdefault(candidate.lca_gid, []).append(candidate)
            # The memo is a DAG: some plan paths from the consumers to
            # the root may bypass the LCA group (e.g. via alternative
            # pre-aggregation joins). Closing again at the owning
            # block's top group — a dominator of every such path — is a
            # no-op for plans already settled at the LCA and guarantees
            # the dimension never leaks to the root.
            lca_group = run.memo.groups[candidate.lca_gid]
            block = lca_group.block
            if block is not None:
                top = run.memo.block_tops.get(block.name)
                if top is not None and top.gid != candidate.lca_gid:
                    closings.setdefault(top.gid, []).append(candidate)
    return PassContext(
        enabled=tuple(enabled),
        substitutions=substitutions,
        closings=closings,
        root_cses=tuple(root_cses),
    )
