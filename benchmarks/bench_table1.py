"""Table 1 + Figure 6 — the Example 1 query batch (paper §6.1).

Reproduces: one candidate CSE survives heuristic pruning (the aggregated
customer⋈orders⋈lineitem, the paper's E5), one CSE optimization pass, the
Figure 6 candidate set without pruning, and a ~3× execution reduction.
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
from repro.workloads import example1_batch

PAPER_REFERENCE = {
    "# of CSEs": "1 [1] with pruning, 5 [15] without",
    "execution": "165.54s -> 55.64s (~3x)",
}


def test_table1(benchmark, bench_db):
    sql = example1_batch()
    results = run_scenario(bench_db, sql)
    print()
    print(format_table("Table 1: query batch (Q1, Q2, Q3)", results, PAPER_REFERENCE))

    by_mode = {r.mode: r for r in results}
    # Paper shape assertions.
    assert by_mode[MODE_CSE].candidates == 1
    assert by_mode[MODE_CSE].cse_optimizations == 1
    assert by_mode[MODE_NO_HEURISTICS].candidates == 5  # Figure 6
    assert speedup(results) > 2.0
    assert by_mode[MODE_CSE].est_cost <= by_mode[MODE_NO_CSE].est_cost

    record(benchmark, results)
    session = Session(bench_db, OptimizerOptions())
    benchmark(lambda: session.execute(sql))


def test_figure6_pruning_narrative(benchmark, bench_db):
    """Without pruning the five Figure-6 candidates appear; pruning keeps
    only the aggregated three-table candidate and the final plan is the
    same either way."""
    session_pruned = Session(bench_db, OptimizerOptions())
    session_full = Session(
        bench_db,
        OptimizerOptions(enable_heuristics=False),
    )
    sql = example1_batch()
    pruned = session_pruned.optimize(sql)
    full = session_full.optimize(sql)

    shapes = sorted(
        (c.definition.signature.has_groupby, c.definition.signature.tables)
        for c in full.candidates
    )
    print("\nFigure 6 candidates (no pruning):")
    for has_groupby, tables in shapes:
        flag = "T" if has_groupby else "F"
        print(f"  [{flag}; {{{', '.join(tables)}}}]")
    assert shapes == [
        (False, ("customer", "lineitem", "orders")),
        (False, ("customer", "orders")),
        (False, ("lineitem", "orders")),
        (True, ("customer", "lineitem", "orders")),
        (True, ("lineitem", "orders")),
    ]
    assert pruned.est_cost == pytest.approx(full.est_cost, rel=1e-9)
    benchmark(lambda: session_pruned.optimize(sql))
