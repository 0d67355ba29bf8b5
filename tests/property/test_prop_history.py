"""Property suite: §5.4 reuse of the base pass's plan sets is invisible
except for speed.

The Step-3 pass finds the plan set of every group no candidate reaches in
the table the base pass filled. For 200 seed-determined random SPJG
batches, optimizing once that way and once with the Step-3 pass started
on empty plan-set tables must agree on everything observable:

* identical final estimated cost, used CSEs and §5.2 discard tallies;
* a byte-identical plan bundle (same :meth:`PlanBundle.fingerprint`);
* identical executed rows, which also match the reference-executor
  oracle on every 5th seed, so reuse cannot hide a shared wrong answer.

Executed rows are held to ``tests/matrix.py``'s invariants; its
``SPOOL_BUDGET`` configuration also starts Step 3 on empty tables, but
falls back before a spool is written.
"""

from __future__ import annotations

import pytest

from repro import Session
from repro.workloads import random_spjg_batch

from ..matrix import DB, DEFAULT, Config, check_input, recorded
from ..plan_reuse import assert_reuse_invisible, fresh_plan_cache

SEEDS = range(200)
#: full end-to-end execution + oracle comparison on a spread of seeds
#: (execution is the expensive part; plan identity already covers the
#: rest, since identical bundles execute identically).
EXECUTION_SEEDS = range(0, 200, 5)

#: Step 3 on empty §5.4 plan-set tables, executed without a budget.
FRESH = Config("fresh plan sets", fresh_plan_sets=True)


@pytest.mark.parametrize("seed", SEEDS)
def test_history_reuse_plans_identical(seed):
    sql = random_spjg_batch(seed)
    reused = Session(DB).optimize(sql)
    with fresh_plan_cache():
        fresh = Session(DB).optimize(sql)
    with recorded(f"spjg_{seed}", sql, FRESH.name):
        assert_reuse_invisible(reused, fresh)


@pytest.mark.parametrize("seed", EXECUTION_SEEDS)
def test_history_reuse_rows_match_oracle(seed):
    check_input(f"spjg_{seed}", random_spjg_batch(seed), (DEFAULT, FRESH))
