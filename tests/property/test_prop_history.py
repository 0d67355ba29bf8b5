"""Property suite: §5.4 reuse of the base pass's plan sets is invisible
except for speed.

The Step-3 pass finds the plan set of every group no candidate reaches in
the history the base pass filled. For 200 seed-determined random SPJG
batches, optimizing once that way and once with the Step-3 pass started
on a fresh plan cache must agree on everything observable:

* identical final estimated cost, used CSEs and §5.2 discard tallies;
* a byte-identical plan bundle (same :meth:`PlanBundle.fingerprint`);
* identical executed rows, which also match the reference-executor
  oracle on every 5th seed, so reuse cannot hide a shared wrong answer.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest.mock import patch

import pytest

from repro import Session
from repro.catalog.tpch import build_tpch_database
from repro.executor.reference import evaluate_batch
from repro.optimizer import engine
from repro.workloads import random_spjg_batch


#: read-only database shared by all seeds.
DB = build_tpch_database(scale_factor=0.0005)

SEEDS = range(200)
#: full end-to-end execution + oracle comparison on a spread of seeds
#: (execution is the expensive part; plan identity already covers the
#: rest, since identical bundles execute identically).
EXECUTION_SEEDS = range(0, 200, 5)


@contextmanager
def fresh_plan_cache():
    """Optimizations inside start their Step-3 pass on an empty plan
    cache, so every group is optimized again instead of reused."""
    run_pass = engine.Optimizer._run_pass

    def fresh(self, search, candidates):
        search.run.history.plan_cache.clear()
        search.run.history.cache_pass.clear()
        return run_pass(self, search, candidates)

    with patch.object(engine.Optimizer, "_run_pass", fresh):
        yield


def assert_reuse_invisible(reused, fresh, runs=None):
    """Two optimizations of one batch, with and without reuse, agree."""
    assert reused.stats.est_cost_final == fresh.stats.est_cost_final
    assert reused.stats.used_cses == fresh.stats.used_cses
    assert reused.bundle.fingerprint() == fresh.bundle.fingerprint()
    assert reused.bundle.describe() == fresh.bundle.describe()
    assert (
        reused.stats.single_consumer_discards
        == fresh.stats.single_consumer_discards
    )
    assert fresh.stats.history_groups_reused == 0
    if runs is not None:
        assert runs[0].sc_discards == runs[1].sc_discards


def _normalize(rows):
    return sorted(
        [
            tuple(round(v, 6) if isinstance(v, float) else v for v in row)
            for row in rows
        ],
        key=repr,
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_history_reuse_plans_identical(seed):
    sql = random_spjg_batch(seed)
    reused = Session(DB).optimize(sql)
    with fresh_plan_cache():
        fresh = Session(DB).optimize(sql)
    assert_reuse_invisible(reused, fresh)


@pytest.mark.parametrize("seed", EXECUTION_SEEDS)
def test_history_reuse_rows_match_oracle(seed):
    sql = random_spjg_batch(seed)
    results = []
    for reuse in (True, False):
        session = Session(DB)
        batch = session.bind(sql)
        if reuse:
            outcome = session.execute(batch)
        else:
            with fresh_plan_cache():
                outcome = session.execute(batch)
        results.append({
            query.name: _normalize(outcome.execution.query(query.name).rows)
            for query in batch.queries
        })
    assert results[0] == results[1]
    oracle = evaluate_batch(DB, batch)
    for name, rows in results[0].items():
        assert rows == _normalize(oracle[name]), (
            f"{name} diverges from the reference executor for:\n{sql}"
        )
