"""Property suite: §5.4 optimization-history reuse is invisible except
for speed.

For 200 seed-determined random SPJG batches (the same generator the plan
cache suite uses), optimizing with history reuse on and off must agree on
everything observable:

* identical final estimated cost;
* identical chosen candidate set (``used_cses``) and a byte-identical
  plan bundle (same :meth:`PlanBundle.fingerprint`);
* identical executed rows — and both match the reference-executor
  oracle, so reuse cannot hide a shared wrong answer.

The history cache may only change *how much work* Step 3 does, never
*which plans* it finds: both modes run the same deterministic DP, and a
cache hit returns a result the off mode would recompute identically.
"""

from __future__ import annotations

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


def _reuse(reuse: bool):
    """Run the enclosed optimizations with history reuse on or off (a
    fresh session per call: the switch is not part of the plan-cache key)."""
    return patch.object(engine, "REUSE_HISTORY", reuse)


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
    on = Session(DB).optimize(sql)
    with _reuse(False):
        off = Session(DB).optimize(sql)
    assert on.stats.est_cost_final == off.stats.est_cost_final
    assert on.stats.used_cses == off.stats.used_cses
    assert on.bundle.fingerprint() == off.bundle.fingerprint()
    assert on.bundle.describe() == off.bundle.describe()
    # Off mode never carries group results across passes, by construction.
    assert off.stats.history_groups_reused == 0


@pytest.mark.parametrize("seed", EXECUTION_SEEDS)
def test_history_reuse_rows_match_oracle(seed):
    sql = random_spjg_batch(seed)
    results = {}
    for reuse in (True, False):
        session = Session(DB)
        batch = session.bind(sql)
        with _reuse(reuse):
            outcome = session.execute(batch)
        results[reuse] = {
            query.name: _normalize(outcome.execution.query(query.name).rows)
            for query in batch.queries
        }
    assert results[True] == results[False]
    session = Session(DB)
    batch = session.bind(sql)
    oracle = evaluate_batch(session.database, batch)
    for name, rows in results[True].items():
        assert rows == _normalize(oracle[name]), (
            f"{name} diverges from the reference executor for:\n{sql}"
        )
