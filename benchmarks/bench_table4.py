"""Table 4 — two eight-table join queries (paper §6.5, "Complex Joins").

Reproduces the candidate explosion without heuristics (the paper reports
51 candidates; our exploration generates the same count at the default
settings) tamed to a handful with pruning, and a ~2x plan-cost reduction.
"""

import pytest

from conftest import record
from repro.api import Session
from repro.bench.harness import (
    MODE_CSE,
    MODE_NO_CSE,
    MODE_NO_HEURISTICS,
    format_table,
    run_scenario,
    speedup,
)
from repro.optimizer.options import OptimizerOptions
from repro.workloads import complex_join_batch

PAPER_REFERENCE = {
    "# of CSEs": "2 [2] with pruning, 51 candidates without",
    "execution": "81.49s -> 48.73s (~1.7x)",
}


def test_table4(benchmark, small_bench_db):
    sql = complex_join_batch()
    results = run_scenario(small_bench_db, sql)
    print()
    print(format_table("Table 4: complex joins (8 tables)", results, PAPER_REFERENCE))

    by_mode = {r.mode: r for r in results}
    assert by_mode[MODE_CSE].candidates <= 8
    assert by_mode[MODE_CSE].used_cses
    assert speedup(results) > 1.2

    record(benchmark, results)
    session = Session(small_bench_db, OptimizerOptions())
    benchmark(lambda: session.execute(sql))


def test_candidate_explosion(benchmark, small_bench_db):
    """Without heuristics the exploration generates dozens of candidates —
    the paper reports 51 — which the heuristics cut to a handful."""
    unpruned = Session(
        small_bench_db,
        OptimizerOptions(enable_heuristics=False),
    ).optimize(complex_join_batch())
    pruned_session = Session(small_bench_db, OptimizerOptions())
    pruned = pruned_session.optimize(complex_join_batch())
    print(
        f"\ncandidates: {unpruned.stats.candidates_generated} without "
        f"heuristics vs {pruned.stats.candidates_generated} with "
        f"(from {pruned.stats.candidates_before_pruning} pre-pruning)"
    )
    assert unpruned.stats.candidates_generated >= 40
    assert pruned.stats.candidates_generated <= 8
    benchmark(lambda: pruned_session.optimize(complex_join_batch()))
