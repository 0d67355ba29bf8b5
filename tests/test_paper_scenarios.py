"""Integration tests reproducing the paper's experimental narratives (§6).

Each test asserts the *shape* the paper reports (candidate sets, pruning
outcomes, plan choices, cost reductions) and that every optimized plan
returns exactly the oracle's rows.
"""

import pytest

from repro import OptimizerOptions, Session
from repro.executor.reference import evaluate_batch
from repro.optimizer import search, step2
from repro.optimizer.physical import PhysSpoolRead
from repro.workloads import (
    complex_join_batch,
    example1_batch,
    example1_with_q4,
    nested_query,
    scaleup_batch,
)

from .rows import assert_same_rows


def assert_matches_oracle(session, batch, outcome):
    oracle = evaluate_batch(session.database, batch)
    for query in batch.queries:
        assert_same_rows(
            outcome.execution.query(query.name).rows,
            oracle[query.name],
            f"{query.name} differs from oracle",
        )


class TestTable1Figure6:
    """§6.1: the Example 1 batch."""

    def test_heuristics_keep_single_aggregated_candidate(self, small_db):
        session = Session(small_db)
        result = session.optimize(example1_batch())
        stats = result.stats
        assert len(stats.candidate_ids) == 1
        assert stats.cse_optimizations == 1
        chosen = result.candidates[0].definition
        assert chosen.signature.has_groupby
        assert chosen.signature.tables == ("customer", "lineitem", "orders")
        # The covering predicate is the paper's E5 predicate: the common
        # date conjunct plus the c_nationkey range hull (0, 25).
        texts = " ".join(repr(c) for c in chosen.covering_conjuncts)
        assert "o_orderdate" in texts
        assert "c_nationkey > 0" in texts and "c_nationkey < 25" in texts

    def test_figure6_candidates_without_pruning(self, small_db):
        session = Session(small_db, OptimizerOptions(enable_heuristics=False))
        result = session.optimize(example1_batch())
        shapes = {
            (c.definition.signature.has_groupby, c.definition.signature.tables)
            for c in result.candidates
        }
        assert shapes == {
            (False, ("customer", "orders")),               # E1
            (False, ("lineitem", "orders")),               # E2
            (False, ("customer", "lineitem", "orders")),   # E3
            (True, ("lineitem", "orders")),                # E4
            (True, ("customer", "lineitem", "orders")),    # E5
        }

    def test_pruning_preserves_the_optimal_plan(self, small_db):
        pruned = Session(small_db).optimize(example1_batch())
        unpruned = Session(
            small_db, OptimizerOptions(enable_heuristics=False)
        ).optimize(example1_batch())
        assert pruned.est_cost == pytest.approx(unpruned.est_cost, rel=1e-9)
        # Both pick the aggregated three-table CSE.
        assert len(pruned.stats.used_cses) == 1
        assert len(unpruned.stats.used_cses) == 1

    def test_execution_speedup_shape(self, small_db):
        """Table 1: close to a 3X reduction in execution cost."""
        with_cse = Session(small_db).execute(example1_batch())
        # The paper's baseline shares nothing: batch-level scan sharing
        # would otherwise narrow the no-CSE side of the comparison.
        without = Session(
            small_db, OptimizerOptions(enable_cse=False),
            shared_scans=False,
        ).execute(example1_batch())
        ratio = (
            without.execution.metrics.cost_units
            / with_cse.execution.metrics.cost_units
        )
        assert ratio > 2.0

    def test_rows_correct_all_modes(self, small_db, monkeypatch):
        for options, ablation in (
            (OptimizerOptions(), None),
            (OptimizerOptions(enable_cse=False), None),
            (OptimizerOptions(enable_heuristics=False), None),
            (OptimizerOptions(), (search, "NAIVE_COST_SPLIT", True)),
            (OptimizerOptions(), (step2, "DYNAMIC_LCA", False)),
            (OptimizerOptions(), (step2, "STACKED", False)),
        ):
            with monkeypatch.context() as patch:
                if ablation is not None:
                    patch.setattr(*ablation)
                session = Session(small_db, options)
                batch = session.bind(example1_batch())
                outcome = session.execute(batch)
                assert_matches_oracle(session, batch, outcome)


class TestTable2Stacked:
    """§6.2: adding Q4 changes the candidate set."""

    def test_candidate_set_changes_with_q4(self, small_db):
        session = Session(small_db)
        with_q4 = session.optimize(example1_with_q4())
        without_q4 = session.optimize(example1_batch())
        assert len(with_q4.stats.candidate_ids) > len(
            without_q4.stats.candidate_ids
        )
        # The orders⋈lineitem aggregation becomes a candidate only with Q4.
        signatures = {
            c.definition.signature.tables for c in with_q4.candidates
        }
        assert ("lineitem", "orders") in signatures

    def test_stacked_machinery_detects_body_consumers(self, small_db):
        from repro.optimizer.engine import Optimizer
        from repro.sql.binder import bind_batch

        optimizer = Optimizer(small_db, OptimizerOptions())
        batch = bind_batch(small_db.catalog, example1_with_q4())
        result, run = optimizer.optimize_with_run(batch)
        narrow = next(
            c for c in result.candidates
            if c.definition.signature.tables == ("lineitem", "orders")
        )
        assert run.body_specs[narrow.cse_id], (
            "the narrow candidate should be consumable inside the wide "
            "candidate's body (stacked CSEs)"
        )
        assert narrow.lifted_to_root

    def test_execution_speedup_and_correctness(self, small_db):
        session = Session(small_db)
        batch = session.bind(example1_with_q4())
        outcome = session.execute(batch)
        without = Session(
            small_db, OptimizerOptions(enable_cse=False),
            shared_scans=False,
        ).execute(example1_with_q4())
        assert (
            without.execution.metrics.cost_units
            / outcome.execution.metrics.cost_units
            > 1.5
        )
        assert_matches_oracle(session, batch, outcome)


class TestTable3Figure7Nested:
    """§6.3: the nested query shares between main block and subquery."""

    def test_single_candidate_used(self, small_db):
        session = Session(small_db)
        result = session.optimize(nested_query())
        assert len(result.stats.candidate_ids) == 1
        assert result.stats.used_cses == result.stats.candidate_ids
        chosen = result.candidates[0].definition
        # Figure 7's E4: the aggregated customer⋈orders⋈lineitem.
        assert chosen.signature.has_groupby
        assert chosen.signature.tables == ("customer", "lineitem", "orders")

    def test_subquery_reads_spool(self, small_db):
        result = Session(small_db).optimize(nested_query())
        query = result.bundle.queries[0]
        sub_plan = next(iter(query.subquery_plans.values()))
        assert any(isinstance(n, PhysSpoolRead) for n in sub_plan.walk())
        assert any(isinstance(n, PhysSpoolRead) for n in query.plan.walk())

    def test_halved_execution_shape(self, small_db):
        """Table 3: execution time cut by about half."""
        with_cse = Session(small_db).execute(nested_query())
        without = Session(
            small_db, OptimizerOptions(enable_cse=False)
        ).execute(nested_query())
        ratio = (
            without.execution.metrics.cost_units
            / with_cse.execution.metrics.cost_units
        )
        assert ratio > 1.5

    def test_rows_correct(self, small_db):
        session = Session(small_db)
        batch = session.bind(nested_query())
        outcome = session.execute(batch)
        assert_matches_oracle(session, batch, outcome)
        # ORDER BY totaldisc desc respected.
        rows = outcome.execution.results[0].rows
        discs = [row[2] for row in rows]
        assert discs == sorted(discs, reverse=True)


class TestTable4ComplexJoins:
    """§6.5: two eight-table queries."""

    def test_candidate_explosion_tamed(self, tiny_db):
        pruned = Session(tiny_db).optimize(complex_join_batch())
        unpruned = Session(
            tiny_db,
            OptimizerOptions(enable_heuristics=False),
        ).optimize(complex_join_batch())
        # The paper: 51 candidates without heuristics, 2 with. Shapes:
        assert unpruned.stats.candidates_generated >= 30
        assert pruned.stats.candidates_generated <= 8
        assert pruned.stats.candidates_before_pruning >= 20

    def test_cost_reduction_shape(self, tiny_db):
        result = Session(tiny_db).optimize(complex_join_batch())
        assert result.stats.used_cses
        assert result.est_cost < 0.8 * result.stats.est_cost_no_cse

    def test_rows_correct(self, tiny_db):
        session = Session(tiny_db)
        batch = session.bind(complex_join_batch())
        outcome = session.execute(batch)
        assert_matches_oracle(session, batch, outcome)


class TestFigure8Scaleup:
    """§6.5: cost benefit grows with batch size, optimization stays sane."""

    def test_benefit_grows_with_batch_size(self, tiny_db):
        reductions = []
        for n in (2, 4, 6):
            session = Session(tiny_db)
            result = session.optimize(scaleup_batch(n))
            reductions.append(result.stats.est_cost_no_cse - result.est_cost)
        assert reductions[0] > 0
        assert reductions[-1] > reductions[0]

    def test_single_cse_serves_whole_batch(self, tiny_db):
        result = Session(tiny_db).optimize(scaleup_batch(5))
        assert 1 <= len(result.stats.used_cses) <= 2

    def test_rows_correct(self, tiny_db):
        session = Session(tiny_db)
        batch = session.bind(scaleup_batch(4))
        outcome = session.execute(batch)
        assert_matches_oracle(session, batch, outcome)


class TestOverheadWithoutSharing:
    """§6 preamble: no sharable expressions → negligible overhead."""

    def test_no_candidates_for_disjoint_queries(self, small_db):
        sql = (
            "select r_name from region;"
            "select p_type, sum(p_availqty) as q from part group by p_type"
        )
        result = Session(small_db).optimize(sql)
        assert result.stats.sharable_buckets == 0
        assert result.stats.cse_optimizations == 0

    def test_single_query_no_self_sharing(self, small_db):
        result = Session(small_db).optimize(
            "select c_nationkey, sum(l_extendedprice) as v "
            "from customer, orders, lineitem "
            "where c_custkey = o_custkey and o_orderkey = l_orderkey "
            "group by c_nationkey"
        )
        assert result.stats.candidates_generated == 0


class TestStackedActivation:
    """A workload engineered so the stacked plan clearly wins: two queries
    need γ(A⋈B⋈C)-style results and two more need the inner γ(B⋈C)."""

    SQL = (
        # Two queries over customer ⋈ orders ⋈ lineitem (fine aggregates).
        "select c_nationkey, sum(l_extendedprice) as v "
        "from customer, orders, lineitem "
        "where c_custkey = o_custkey and o_orderkey = l_orderkey "
        "group by c_nationkey;"
        "select c_mktsegment, sum(l_extendedprice) as v "
        "from customer, orders, lineitem "
        "where c_custkey = o_custkey and o_orderkey = l_orderkey "
        "group by c_mktsegment;"
        # Two queries over orders ⋈ lineitem alone.
        "select o_orderpriority, sum(l_extendedprice) as v "
        "from orders, lineitem where o_orderkey = l_orderkey "
        "group by o_orderpriority;"
        "select o_orderstatus, sum(l_extendedprice) as v "
        "from orders, lineitem where o_orderkey = l_orderkey "
        "group by o_orderstatus"
    )

    def test_stacked_spools_activate(self, small_db):
        session = Session(small_db)
        result = session.optimize(self.SQL)
        used = result.stats.used_cses
        assert len(used) >= 2, f"expected stacked spools, used={used}"
        # One used CSE's body must read another's spool.
        spool_ids = [cid for cid, _ in result.bundle.root_spools]
        stacked = False
        for cid, body in result.bundle.root_spools:
            reads = {
                n.cse_id for n in body.walk() if isinstance(n, PhysSpoolRead)
            }
            if reads & set(spool_ids):
                stacked = True
        assert stacked, "no spool body reads another spool"

    def test_stacked_rows_correct(self, small_db):
        session = Session(small_db)
        batch = session.bind(self.SQL)
        outcome = session.execute(batch)
        assert_matches_oracle(session, batch, outcome)

    def test_disabling_stacking_costs_more(self, small_db, monkeypatch):
        stacked = Session(small_db).optimize(self.SQL)
        monkeypatch.setattr(step2, "STACKED", False)
        flat = Session(small_db).optimize(self.SQL)
        assert stacked.est_cost <= flat.est_cost
