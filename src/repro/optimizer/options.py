"""Optimizer configuration knobs.

Defaults follow the paper: α = 10% (Heuristic 1), β = 90% (Heuristic 4),
CSE exploitation enabled, heuristic pruning enabled, dynamic LCA enabled.
Each knob exists so the benchmarks can reproduce the paper's "no CSE" /
"using CSEs" / "using CSEs (no heuristics)" columns and the ablations in
DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class OptimizerOptions:
    """Configuration for :class:`repro.optimizer.engine.Optimizer`."""

    #: Master switch for the CSE optimization phase (Steps 2-3, §2.2).
    enable_cse: bool = True

    #: Heuristic pruning (Heuristics 1-4, §4.3). When off, one candidate per
    #: join-compatible signature bucket is generated covering all consumers,
    #: reproducing the paper's "no heuristics" columns.
    enable_heuristics: bool = True

    #: Heuristic 1 threshold: candidates whose consumers' summed lower cost
    #: bounds are below ``alpha`` × (total query cost) are discarded.
    alpha: float = 0.10

    #: Heuristic 4 threshold: a contained candidate is discarded when its
    #: estimated result size exceeds ``beta`` × the containing candidate's.
    beta: float = 0.90

    #: Explore eager pre-aggregation (group-by pushdown below joins). This is
    #: what generates aggregated sharing opportunities such as the paper's
    #: E4/E5 (Figure 6).
    enable_preagg: bool = True

    #: §5.2's dynamic LCA: compute the least common ancestor over the
    #: consumers that can actually substitute (matched), not the full
    #: constructed set. The paper's runtime narrowing ("after a consumer's
    #: subtree resolves without the CSE, move the LCA down") exists to prune
    #: a single-best-plan optimizer's wasted work; the usage-profile search
    #: here keeps both alternatives per group, so that effect is subsumed —
    #: see DESIGN.md. Static placement (False) is always correct too.
    dynamic_lca: bool = True

    #: §5.5 stacked CSEs: let candidate bodies consume other candidates.
    enable_stacked: bool = True

    #: Hard caps keeping pathological inputs bounded.
    max_candidates: int = 64
    max_cse_optimizations: int = 128

    #: Step-3 selection strategy. ``"paper"`` is the paper's §5.3 subset
    #: enumeration (independence-pruned passes over candidate subsets).
    #: ``"greedy"`` is Roy et al.'s benefit-ordered greedy selection over
    #: the AND-OR DAG (arXiv cs/9910021): candidates are materialized one
    #: at a time in descending marginal-benefit order, with lazily
    #: re-evaluated benefits, so large candidate sets optimize in
    #: near-linear passes instead of up to ``max_cse_optimizations``
    #: subsets. ``"auto"`` picks greedy once the candidate count exceeds
    #: :data:`repro.optimizer.selection.GREEDY_THRESHOLD` (what
    #: coordinator-merged cross-session batches hit) and the paper
    #: enumeration below it. Part of the plan-cache config key: changing
    #: the strategy re-keys cached plans.
    cse_strategy: str = "paper"

    #: §5.4 optimization-history reuse: keep per-group plan sets (keyed by
    #: the group's candidate footprint ∩ the enabled set), finalized
    #: per-query plan sets, and folded assembly prefixes alive across
    #: Step-3 passes, so each pass re-optimizes only the groups whose
    #: relevant enabled candidates actually changed. Off reproduces the
    #: naive scheme the paper improves on — every pass re-optimizes the
    #: whole batch from scratch. Plans are identical either way; only the
    #: work to find them differs.
    reuse_history: bool = True

    #: Cost accounting for shared spools. ``"profile"`` is the paper's
    #: correct scheme (§5.2: usage cost per consumer, initial cost once at
    #: the LCA, single-consumer plans discarded). ``"naive_split"``
    #: reproduces the broken scheme the paper argues against (initial cost
    #: split evenly among potential consumers at substitution time).
    cost_mode: str = "profile"

    #: Enter the CSE phase only when the batch's estimated cost exceeds this
    #: value ("only if the query is expensive", §2.2). 0 disables the gate.
    cse_cost_threshold: float = 0.0

    #: Engine-v2 pipeline fusion: collapse eligible scan→filter→project
    #: chains into a single streaming ``PhysFusedPipeline`` node that the
    #: executor runs morsel-at-a-time (``--no-fused`` turns it off). Plan
    #: costs are unchanged — fusion is a post-pass on the chosen bundle.
    enable_fusion: bool = True

    def __post_init__(self) -> None:
        if self.cost_mode not in ("profile", "naive_split"):
            raise ValueError(f"unknown cost_mode {self.cost_mode!r}")
        if self.cse_strategy not in ("paper", "greedy", "auto"):
            raise ValueError(f"unknown cse_strategy {self.cse_strategy!r}")
        if self.max_candidates < 0 or self.max_cse_optimizations < 0:
            raise ValueError(
                "max_candidates and max_cse_optimizations must be non-negative"
            )
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be within [0, 1]")
        if not 0.0 <= self.beta:
            raise ValueError("beta must be non-negative")
