"""Independent vs. competing candidates exercised end-to-end (Defs 5.2/5.3,
Props 5.4-5.6).

Cross-query candidates always settle at the batch root (their LCAs
coincide), so the *independent* relation only shows up when candidates
settle inside different queries. This workload gives each of two queries its
own internal self-overlap, producing two candidates with LCAs in different
query subtrees — genuinely independent per Definition 5.2.
"""

import pytest

from repro import OptimizerOptions, Session
from repro.optimizer.selection import SubsetEnumerator, competing
from repro.executor.reference import evaluate_batch
from repro.optimizer.engine import Optimizer
from repro.sql.binder import bind_batch

#: Query 1: the customer⋈orders join appears twice internally.
#: Query 2: the nation⋈customer join appears twice internally.
SQL = (
    "select o1.o_orderstatus, sum(c1.c_acctbal) as v "
    "from customer c1, orders o1, customer c2, orders o2 "
    "where c1.c_custkey = o1.o_custkey and c2.c_custkey = o2.o_custkey "
    "  and o1.o_orderkey = o2.o_orderkey "
    "group by o1.o_orderstatus;"
    "select n3.n_regionkey, sum(c3.c_acctbal) as v "
    "from nation n3, customer c3, nation n4, customer c4 "
    "where n3.n_nationkey = c3.c_nationkey and n4.n_nationkey = c4.c_nationkey "
    "  and c3.c_custkey = c4.c_custkey "
    "group by n3.n_regionkey"
)


@pytest.fixture()
def optimized(small_db):
    optimizer = Optimizer(
        small_db,
        OptimizerOptions(enable_heuristics=False, max_cse_optimizations=32),
    )
    batch = bind_batch(small_db.catalog, SQL)
    result, run = optimizer.optimize_with_run(batch)
    return run, result


class TestIndependence:
    def test_candidates_from_both_queries(self, optimized):
        run, result = optimized
        blocks = set()
        for candidate in result.candidates:
            for group in candidate.definition.consumer_groups:
                blocks.add(group.block.name)
        assert {"Q1", "Q2"} <= blocks

    def test_cross_query_independence_detected(self, optimized):
        run, result = optimized
        memo = run.memo
        q1_candidates = [
            c for c in result.candidates
            if not c.lifted_to_root
            and c.definition.consumer_groups[0].block.name == "Q1"
        ]
        q2_candidates = [
            c for c in result.candidates
            if not c.lifted_to_root
            and c.definition.consumer_groups[0].block.name == "Q2"
        ]
        if not (q1_candidates and q2_candidates):
            pytest.skip("stacking lifted every candidate on this workload")
        assert not competing(q1_candidates[0], q2_candidates[0], memo)

    def test_same_query_candidates_compete(self, optimized):
        run, result = optimized
        memo = run.memo
        q1 = [
            c for c in result.candidates
            if not c.lifted_to_root
            and c.definition.consumer_groups[0].block.name == "Q1"
        ]
        if len(q1) < 2:
            pytest.skip("only one settled candidate in Q1")
        assert competing(q1[0], q1[1], memo)

    def test_prop54_cuts_passes_for_independent_pair(self, optimized):
        """With two independent candidates, the enumerator stops after the
        first pass when both decisions resolve (Prop 5.4)."""
        run, result = optimized
        memo = run.memo
        independent = []
        for candidate in result.candidates:
            if candidate.lifted_to_root:
                continue
            if all(
                candidate is other
                or not competing(candidate, other, memo)
                for other in independent
            ):
                independent.append(candidate)
        if len(independent) < 2:
            pytest.skip("no independent pair on this workload")
        enum = SubsetEnumerator(independent[:2], memo)
        full = enum.next_subset()
        enum.report(full, full)
        assert enum.next_subset() is None

    def test_rows_correct(self, small_db):
        session = Session(small_db)
        batch = session.bind(SQL)
        outcome = session.execute(batch)
        oracle = evaluate_batch(session.database, batch)
        for query in batch.queries:
            got = sorted(
                [
                    tuple(
                        round(v, 3) if isinstance(v, float) else v
                        for v in row
                    )
                    for row in outcome.execution.query(query.name).rows
                ],
                key=repr,
            )
            want = sorted(
                [
                    tuple(
                        round(v, 3) if isinstance(v, float) else v
                        for v in row
                    )
                    for row in oracle[query.name]
                ],
                key=repr,
            )
            assert got == want
