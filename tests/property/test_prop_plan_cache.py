"""Property suite: the plan cache is invisible except for speed.

For 100 seed-determined random SPJG batches (the same generator the other
property suites use), three invariants must hold on every workload:

* a warm (cache-hit) ``execute`` returns exactly the rows of the cold
  optimize-and-execute that populated the cache, and the cold rows equal
  the oracle's (``tests/matrix.py``'s ``DEFAULT`` configuration);
* every lookup lands in exactly one of ``plan_cache.hit`` /
  ``plan_cache.miss`` — the counters account for all lookups;
* mutating a table the batch reads invalidates the entry, and the
  re-optimized plan's rows equal the reference oracle's on the mutated
  database.
"""

from __future__ import annotations

import pytest

from repro import MetricsRegistry, Session
from repro.catalog.tpch import build_tpch_database
from repro.executor.reference import evaluate_batch
from repro.serve import batch_tables
from repro.workloads import random_spjg_batch

from ..matrix import (
    DEFAULT,
    check_input,
    check_rows,
    duplicate_first_row,
    recorded,
)

SEEDS = range(100)
#: every SPJG join chain includes orders, so inserting there always
#: intersects the batch's table set.
MUTATED_TABLE = "orders"
MUTATION_SEEDS = range(0, 100, 10)


@pytest.mark.parametrize("seed", SEEDS)
def test_cache_hit_rows_equal_cold_rows(seed):
    # DEFAULT runs warm: a hit whose rows are the cold rows byte for
    # byte, and the registry's plan_cache.miss and plan_cache.hit at one
    # each.
    check_input(f"spjg_{seed}", random_spjg_batch(seed), (DEFAULT,))


@pytest.mark.parametrize("seed", MUTATION_SEEDS)
def test_mutation_invalidates_and_recomputes(seed):
    # A private database: the insert must not leak into other tests.
    database = build_tpch_database(scale_factor=0.0005)
    sql = random_spjg_batch(seed)
    registry = MetricsRegistry()
    session = Session(database, registry=registry)
    assert MUTATED_TABLE in batch_tables(session.bind(sql))

    session.execute(sql)
    assert session.execute(sql).plan_cache_hit

    duplicate_first_row(database, MUTATED_TABLE)
    with recorded(f"write_{seed}", sql, "write"):
        after = session.execute(sql)
        assert not after.plan_cache_hit, "mutation must drop the cached plan"
        counters = registry.snapshot()["counters"]
        assert counters["plan_cache.invalidation"] >= 1
        assert counters["plan_cache.miss"] == 2
        assert counters["plan_cache.hit"] == 1
        # The re-optimized plan sees the mutation.
        batch = Session(database).bind(sql)
        check_rows(after, batch, evaluate_batch(database, batch), set())


def test_unrelated_table_mutation_keeps_entries():
    database = build_tpch_database(scale_factor=0.0005)
    session = Session(database)
    sql = "select r_name from region"
    session.execute(sql)
    duplicate_first_row(database, "supplier")  # region plan unaffected
    assert session.execute(sql).plan_cache_hit
