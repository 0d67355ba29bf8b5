"""Optimizer configuration knobs.

The four fields reproduce the paper's evaluated configurations — "no CSE",
"using CSEs" and "using CSEs (no heuristics)" — plus the serving path's
choice of Step-3 strategy. Everything else the paper fixes lives as a
module constant in the one module that decides with it, read at call time
so an ablation can flip it:

* α and β (§4.3) — :data:`repro.cse.heuristics.ALPHA` / ``BETA``;
* eager pre-aggregation — :data:`repro.optimizer.memo.PREAGG`;
* dynamic LCA (§5.2) and stacked CSEs (§5.5) —
  :data:`repro.optimizer.step2.DYNAMIC_LCA` / ``STACKED``;
* §5.4 history reuse — :data:`repro.optimizer.engine.REUSE_HISTORY`;
* §5.2's naive initial-cost split —
  :data:`repro.optimizer.search.NAIVE_COST_SPLIT`.

The constants are not part of the plan-cache ``config_key``: code that
flips one must not reuse a plan cache or coordinator populated before the
flip.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class OptimizerOptions:
    """Configuration for :class:`repro.optimizer.engine.Optimizer`.

    Frozen: its ``repr`` is the plan-cache and coordinator bucket key and
    one instance is shared by every session built from it; derive variants
    with :func:`dataclasses.replace`."""

    #: Master switch for the CSE optimization phase (Steps 2-3, §2.2).
    enable_cse: bool = True

    #: Heuristic pruning (Heuristics 1-4, §4.3). When off, one candidate per
    #: join-compatible signature bucket is generated covering all consumers,
    #: reproducing the paper's "no heuristics" columns.
    enable_heuristics: bool = True

    #: Hard cap on Step-3 passes, keeping pathological inputs bounded (the
    #: Step-2 candidate cap is :data:`repro.optimizer.step2.MAX_CANDIDATES`).
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

    def __post_init__(self) -> None:
        if self.cse_strategy not in ("paper", "greedy", "auto"):
            raise ValueError(f"unknown cse_strategy {self.cse_strategy!r}")
        if self.max_cse_optimizations < 0:
            raise ValueError("max_cse_optimizations must be non-negative")
