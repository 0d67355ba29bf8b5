"""Step 2 of Figure 1: from sharable signature buckets to costed candidates.

Sharable buckets → join-compatible sets → Algorithm 1 with Heuristics 1-4
(:mod:`repro.cse.candidates`); then each surviving definition's body is built
into the memo and optimized standalone, its consumers are view-matched
(query-side, and inside other candidates' bodies — stacked CSEs, §5.5), its
least common ancestor is placed (Definition 5.1, §5.2), and the per-group
candidate footprints behind the §5.4 history keys are computed.
:func:`build_pass_context` turns an enabled subset of the result into what one
Step-3 pass of the search consumes.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Tuple

from ..cse.candidates import CandidateCse, CandidateIdAllocator, generate_candidates
from ..cse.compatibility import ConsumerProfiles, compatibility_groups
from ..cse.heuristics import PruneTrace, heuristic1_keep, heuristic4_filter
from ..cse.matching import ConsumerSpec, build_consumer_specs, try_match_consumer
from ..obs import DecisionJournal
from .search import Search
from .state import BASE_PASS, EMPTY_PROFILE, OptimizerRun, PassContext

#: Minimum number of referenced tables for a sharable signature bucket.
#: Single-table covering subexpressions save no join work and the paper's
#: prototype does not generate them (Figure 6).
MIN_CSE_TABLES = 2


def generate(
    search: Search, journal: DecisionJournal, buckets, base_cost: float
) -> List[CandidateCse]:
    """Candidate generation over the sharable ``buckets``; fills the
    candidate-side fields of ``search.run`` and returns the candidates."""
    run = search.run
    memo = run.memo
    stats = run.stats
    options = search.options
    trace = stats.prune_trace = PruneTrace()
    max_instance = max(
        (t.instance for g in memo.groups for t in g.tables), default=0
    )
    # Body instances go to emitted candidates only, consecutively after
    # the batch's own, so EXPLAIN numbering does not depend on how many
    # merges Algorithm 1 probed.
    instance_allocator = itertools.count(max_instance + 1).__next__
    id_allocator = CandidateIdAllocator()
    profiles = ConsumerProfiles(memo.block_infos)
    definitions = []
    for signature, groups in buckets:
        search.check_deadline()
        if signature.table_count < MIN_CSE_TABLES:
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
                    search.estimator,
                    search.cost_model,
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
    cost_model = search.cost_model
    for definition in definitions:
        memo.build_block(definition.block, part_id=f"cse:{definition.cse_id}")
        memo.invalidate_dag_cache()
        body_top = memo.block_tops[definition.block.name]
        body_choice = search.optimize_group(body_top, BASE_PASS)[EMPTY_PROFILE]
        project_cost = cost_model.project(
            body_top.est_rows, len(definition.outputs)
        )
        candidate = CandidateCse(
            definition=definition,
            body_cost=body_choice.cost + project_cost,
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
    # Consumer specs (query-side), then stacked consumers (§5.5).
    for candidate in candidates:
        run.specs[candidate.cse_id] = build_consumer_specs(
            candidate.definition, memo.block_infos
        )
        run.body_specs[candidate.cse_id] = []
    if options.enable_stacked:
        _find_stacked_consumers(run, candidates)

    # LCA per candidate (Definition 5.1; dynamic narrowing per §5.2).
    memo.invalidate_dag_cache()
    for candidate in candidates:
        gids = [spec.group.gid for spec in run.specs[candidate.cse_id]]
        run.consumer_gids[candidate.cse_id] = set(gids) | {
            spec.group.gid for spec in run.body_specs[candidate.cse_id]
        }
        if candidate.lifted_to_root or not gids:
            candidate.lca_gid = run.root.gid
        elif options.dynamic_lca:
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
                or candidate.lca_gid == run.root.gid
            ),
        )
    # §5.4: per-group candidate footprints — for each memo group, the
    # candidate ids whose substitutes can appear anywhere in its
    # subtree. Every Step-3 cache key derives from footprint ∩ enabled.
    run.footprints = memo.candidate_footprints(run.consumer_gids)
    return candidates


def _find_stacked_consumers(
    run: OptimizerRun, candidates: List[CandidateCse]
) -> None:
    """Let candidates be consumed inside other candidates' bodies.

    Restricted to strictly narrower candidates consuming inside wider
    ones, which keeps the stacking relation acyclic (DESIGN.md)."""
    memo = run.memo
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
        enabled_ids=frozenset(c.cse_id for c in enabled),
    )
