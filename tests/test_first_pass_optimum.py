"""DESIGN decision 0: the usage-profile DP finds the global optimum in the
first, full-set Step-3 pass — the only pass the engine runs.

The differential: over a slice of the corpus EXPERIMENTS.md measures,
heuristics on and off, the engine's cost and used CSEs equal what §5.3's
subset enumeration and Roy et al.'s greedy selection (cs/9910021) find,
both kept as oracles in ``tests/selection_reference.py``; and no pass of
the enumeration beats its first, the full-set pass."""

from __future__ import annotations

import pytest

from repro import OptimizerOptions, Session
from repro.workloads import (
    adapted_batch,
    complex_join_batch,
    example1_batch,
    example1_with_q4,
    independent_pairs_batch,
    nested_query,
    scaleup_batch,
)
from repro.workloads.generator import random_spjg_batch, random_sql_batch

from .selection_reference import reference_select

FAMILIES = {
    "scaleup": [scaleup_batch(n, seed=0) for n in range(2, 11)],
    "paper_shapes": [
        example1_batch(), example1_with_q4(), nested_query(),
        complex_join_batch(), independent_pairs_batch(),
    ],
    "random_spjg": [random_spjg_batch(seed) for seed in range(30)],
    "random_sql": [random_sql_batch(seed) for seed in range(30)],
}


def check_against_oracles(db, sql, heuristics):
    """The engine's plan against both oracles'; the enumeration's passes."""
    options = OptimizerOptions(enable_heuristics=heuristics)
    engine, found = reference_select(db, sql, options)
    want = (engine.est_cost, engine.stats.used_cses)
    for strategy, (cost, used, _passes) in found.items():
        assert (cost, used) == want, (strategy, sql)
    passes = found["paper"][2]
    if passes:
        (first_subset, first), *later = passes
        assert first_subset == frozenset(engine.stats.candidate_ids)
        assert all(later_cost >= first for _, later_cost in later), sql
    return passes


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_no_later_pass_beats_the_first(small_db, family):
    step3_runs = 0
    for heuristics in (True, False):
        for sql in FAMILIES[family]:
            step3_runs += bool(check_against_oracles(small_db, sql, heuristics))
    assert step3_runs


def test_all_tpch_queries_without_heuristics(small_db):
    """The 8 adapted TPC-H queries in one batch with heuristics off put 10
    candidates at the batch root. The one pass finds E8's plan, as both
    oracles do."""
    check_against_oracles(small_db, adapted_batch(), heuristics=False)
    result = Session(
        small_db, OptimizerOptions(enable_heuristics=False)
    ).optimize(adapted_batch())
    assert round(result.est_cost, 2) == 3707.15
    assert result.stats.used_cses == ["E8"]
    assert result.stats.cse_optimizations == 1


def test_example1_without_heuristics_enumerates_five_subsets(small_db):
    """Table 1's "[opts]" without pruning: the paper reports 15 passes; the
    enumeration oracle, whose interval rule subsumes Props 5.4–5.6, takes
    5; the engine takes 1 and chooses the same plan."""
    passes = check_against_oracles(small_db, example1_batch(), heuristics=False)
    assert len(passes) == 5
