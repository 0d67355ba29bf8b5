"""Property suite: cross-session merging is invisible except for speed.

For 100 seed-determined pairs of random SPJG queries, each query is
submitted from its *own* session through a shared coordinator whose
window is long enough that the pair always meets in one group. Three
results must agree row-for-row (up to float rounding and row order, the
repo's standard equality):

* the coordinator-merged execution of each query,
* the same query executed on an isolated session (no coordinator),
* the reference evaluator's oracle rows.

Each pair runs twice, once per Step-3 oracle of
``tests/selection_reference.py`` (200 cases): the plan the coordinator
optimized for the pair costs what §5.3's subset enumeration finds, with
the same used CSEs, and no more than Roy et al.'s greedy selection finds.

Merging is opportunistic — pairs with disjoint table signatures run solo
by design — so the suite also asserts the coordinator actually merged a
healthy fraction of the pairs, and that every published spool was freed.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro import OptimizerOptions, Session
from repro.catalog.tpch import build_tpch_database
from repro.executor.reference import evaluate_batch
from repro.obs import MetricsRegistry
from repro.serve import SharedBatchCoordinator
from repro.serve.fingerprint import batch_fingerprint
from repro.workloads.generator import random_spjg_query

from ..selection_reference import reference_select

#: read-only database shared by every seed.
DB = build_tpch_database(scale_factor=0.0005)

SEEDS = range(100)
#: the Step-3 oracle each run's plan is checked against.
REFERENCES = ("paper", "greedy")

#: merged windows observed per reference run, asserted non-trivial at the end.
_MERGED = {reference: 0 for reference in REFERENCES}


def _norm(rows):
    return sorted(
        [
            tuple(round(v, 4) if isinstance(v, float) else v for v in row)
            for row in rows
        ],
        key=repr,
    )


def _pair(seed):
    rng = random.Random(seed)
    return random_spjg_query(rng), random_spjg_query(rng)


def _check_step3(reference, optimization, sql):
    """``optimization`` of ``sql`` against the ``reference`` oracle."""
    options = OptimizerOptions()
    _, found = reference_select(DB, sql, options, (reference,))
    cost, used, _passes = found[reference]
    if reference == "paper":
        assert (optimization.est_cost, optimization.stats.used_cses) == (
            cost, used
        ), sql
    else:
        assert optimization.est_cost <= cost, sql


@pytest.mark.parametrize("reference", REFERENCES)
@pytest.mark.parametrize("seed", SEEDS)
def test_merged_equals_isolated_equals_oracle(seed, reference):
    sql_a, sql_b = _pair(seed)
    options = OptimizerOptions()
    registry = MetricsRegistry()
    # max_group=2 closes an overlapping pair's window the moment both have
    # arrived (the barrier makes that near-instant); only disjoint pairs —
    # two solo leaders — wait out the 400 ms.
    coordinator = SharedBatchCoordinator(
        window_ms=400.0, max_group=2, registry=registry
    )
    s1 = Session(DB, options, coordinator=coordinator, registry=registry)
    s2 = Session(DB, options, coordinator=coordinator, registry=registry)

    outcomes = {}
    arrival = threading.Barrier(2)

    def run(name, session, sql):
        arrival.wait()
        outcomes[name] = session.execute(sql)

    threads = [
        threading.Thread(target=run, args=("a", s1, sql_a), daemon=True),
        threading.Thread(target=run, args=("b", s2, sql_b), daemon=True),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60.0)
    assert not any(t.is_alive() for t in threads), "coordinator deadlocked"

    iso = Session(DB, options)
    for name, sql in (("a", sql_a), ("b", sql_b)):
        shared_rows = _norm(outcomes[name].execution.results[0].rows)
        isolated = iso.execute(sql)
        assert shared_rows == _norm(isolated.execution.results[0].rows)
        batch = iso.bind(sql)
        oracle = evaluate_batch(DB, batch)
        assert shared_rows == _norm(oracle[batch.queries[0].name])

    merged = outcomes["a"].optimization
    if merged.bundle.queries[0].name.startswith("s0__"):
        # The coordinator binds the pair in batch-fingerprint order.
        ordered = sorted(
            (sql_a, sql_b), key=lambda sql: batch_fingerprint(iso.bind(sql))
        )
        _check_step3(reference, merged, ";\n".join(ordered))
    else:
        for name, sql in (("a", sql_a), ("b", sql_b)):
            _check_step3(reference, outcomes[name].optimization, sql)

    counters = registry.snapshot()["counters"]
    # Refcount hygiene on every seed: published spools all freed.
    assert counters.get("coordinator.spools_freed", 0) == counters.get(
        "coordinator.spools_published", 0
    )
    _MERGED[reference] += int(counters.get("coordinator.merged_batches", 0))


@pytest.mark.parametrize("reference", REFERENCES)
def test_merging_happened_for_a_healthy_fraction(reference):
    # Runs after the parametrized sweep (pytest collection order): random
    # SPJG pairs draw from three overlapping join chains, so well over
    # half the seeds must have produced an actual merge.
    assert _MERGED[reference] >= len(SEEDS) // 2
