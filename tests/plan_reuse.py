"""§5.4 reuse made visible: run Step 3 on empty plan-set tables, and
compare the result with an optimization that reused the base pass's."""

from __future__ import annotations

from contextlib import contextmanager
from unittest.mock import patch

from repro.optimizer import engine


@contextmanager
def fresh_plan_cache():
    """Optimizations inside start their Step-3 pass on empty plan-set
    tables, so every group is optimized again instead of reused."""
    run_pass = engine.Optimizer._run_pass

    def fresh(self, search, candidates):
        search.run.base_plans.clear()
        search.run.step3_plans.clear()
        return run_pass(self, search, candidates)

    with patch.object(engine.Optimizer, "_run_pass", fresh):
        yield


def reuse_signature(optimization) -> tuple:
    """What §5.4 reuse must not change: the final estimate, the used CSEs,
    the plan bundle and the §5.2 discard tallies."""
    return (
        optimization.stats.est_cost_final,
        optimization.stats.used_cses,
        optimization.bundle.fingerprint(),
        optimization.bundle.describe(),
        optimization.stats.single_consumer_discards,
    )


def assert_reuse_invisible(reused, fresh, runs=None):
    """Two optimizations of one batch, with and without reuse, agree."""
    assert reuse_signature(reused) == reuse_signature(fresh)
    assert fresh.stats.history_groups_reused == 0
    if runs is not None:
        assert runs[0].sc_discards == runs[1].sc_discards
