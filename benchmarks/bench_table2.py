"""Table 2 — the Example 1 batch plus Q4 (paper §6.2, stacked CSEs).

Adding the part⋈orders⋈lineitem query changes the candidate set: the
aggregated orders⋈lineitem expression becomes a candidate with consumers in
all four queries *and* inside the wide candidate's body (stacked CSEs). The
shape reproduced here: a different candidate set than Table 1 and a large
execution reduction.
"""

import pytest

from conftest import record
from repro.api import Session
from repro.bench.harness import (
    MODE_CSE,
    MODE_NO_CSE,
    format_table,
    run_scenario,
    speedup,
)
from repro.optimizer.options import OptimizerOptions
from repro.sql.binder import bind_batch
from repro.workloads import example1_batch, example1_with_q4

PAPER_REFERENCE = {
    "# of CSEs": "2 [1] with pruning, 5 [15] without",
    "execution": "216.40s -> 85.94s (~2.5x)",
}


def test_table2(benchmark, bench_db):
    sql = example1_with_q4()
    results = run_scenario(bench_db, sql)
    print()
    print(format_table("Table 2: query batch (Q1, Q2, Q3, Q4)", results, PAPER_REFERENCE))

    by_mode = {r.mode: r for r in results}
    assert by_mode[MODE_CSE].candidates == 2
    assert speedup(results) > 1.5

    record(benchmark, results)
    session = Session(bench_db, OptimizerOptions())
    benchmark(lambda: session.execute(sql))


def test_candidate_set_differs_from_table1(benchmark, bench_db):
    """'The additional query results in a different overall choice of
    covering subexpressions' (§6.2)."""
    session = Session(bench_db, OptimizerOptions())
    three = session.optimize(example1_batch())
    four = session.optimize(example1_with_q4())
    sigs3 = {c.definition.signature.tables for c in three.candidates}
    sigs4 = {c.definition.signature.tables for c in four.candidates}
    print(f"\ncandidates Q1-Q3: {sorted(sigs3)}")
    print(f"candidates Q1-Q4: {sorted(sigs4)}")
    assert sigs3 != sigs4
    assert ("lineitem", "orders") in sigs4
    benchmark(lambda: session.optimize(example1_with_q4()))


def test_stacked_consumers_detected(benchmark, bench_db):
    """The §5.5 machinery: the narrow candidate is consumable inside the
    wide candidate's body and settles at the batch root."""
    from repro.optimizer.engine import Optimizer

    def run():
        optimizer = Optimizer(bench_db, OptimizerOptions())
        batch = bind_batch(bench_db.catalog, example1_with_q4())
        result, state = optimizer.optimize_with_run(batch)
        narrow = next(
            c for c in result.candidates
            if c.definition.signature.tables == ("lineitem", "orders")
        )
        return state, narrow

    state, narrow = run()
    assert state.body_specs[narrow.cse_id]
    assert narrow.lifted_to_root
    print(
        f"\nstacked: {narrow.cse_id} has "
        f"{len(state.body_specs[narrow.cse_id])} body consumer(s) and "
        f"{len(state.specs[narrow.cse_id])} query consumer(s)"
    )
    benchmark(lambda: run()[0])
