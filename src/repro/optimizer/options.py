"""Optimizer configuration knobs.

The two fields reproduce the paper's evaluated configurations — "no CSE",
"using CSEs" and "using CSEs (no heuristics)". Everything else the paper
fixes lives as a module constant in the one module that decides with it,
read at call time so an ablation can flip it:

* α and β (§4.3) — :data:`repro.cse.heuristics.ALPHA` / ``BETA``;
* eager pre-aggregation — :data:`repro.optimizer.memo.PREAGG`;
* dynamic LCA (§5.2) and stacked CSEs (§5.5) —
  :data:`repro.optimizer.step2.DYNAMIC_LCA` / ``STACKED``;
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
