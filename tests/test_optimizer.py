"""End-to-end optimizer tests: plan shapes, costing, CSE decisions."""

import pytest

from repro import OptimizerOptions, Session
from repro.optimizer import search
from repro.optimizer.engine import Optimizer
from repro.optimizer.physical import (
    PhysFilter,
    PhysHashAgg,
    PhysHashJoin,
    PhysIndexScan,
    PhysProject,
    PhysScan,
    PhysSpoolDef,
    PhysSpoolRead,
)
from repro.sql.binder import bind_batch
from repro.workloads import example1_batch


def nodes_of(plan, node_type):
    return [n for n in plan.walk() if isinstance(n, node_type)]


class TestSingleQueryPlans:
    def test_simple_scan_plan(self, tiny_session):
        result = tiny_session.optimize("select c_name from customer")
        plan = result.bundle.queries[0].plan
        assert nodes_of(plan, PhysScan)
        assert isinstance(plan, PhysProject)

    def test_filter_pushed_into_scan(self, tiny_session):
        result = tiny_session.optimize(
            "select c_name from customer where c_nationkey = 3"
        )
        scan = nodes_of(result.bundle.queries[0].plan, PhysScan)[0]
        assert len(scan.conjuncts) == 1

    def test_join_plan_builds_on_smaller_side(self, tiny_session):
        result = tiny_session.optimize(
            "select c_name, o_totalprice from customer, orders "
            "where c_custkey = o_custkey"
        )
        join = nodes_of(result.bundle.queries[0].plan, PhysHashJoin)[0]
        assert join.left.est_rows <= join.right.est_rows

    def test_aggregation_plan(self, tiny_session):
        result = tiny_session.optimize(
            "select c_nationkey, sum(c_acctbal) as t from customer "
            "group by c_nationkey"
        )
        assert nodes_of(result.bundle.queries[0].plan, PhysHashAgg)

    def test_index_scan_chosen_for_selective_date(self, tiny_session):
        """orders has an index on o_orderdate; a narrow range should use it
        (the capability Heuristic 3's Example 7 relies on)."""
        result = tiny_session.optimize(
            "select o_orderkey from orders "
            "where o_orderdate = '1995-01-01'"
        )
        assert nodes_of(result.bundle.queries[0].plan, PhysIndexScan)

    def test_full_scan_for_wide_range(self, tiny_session):
        result = tiny_session.optimize(
            "select o_orderkey from orders where o_orderdate > '1970-01-01'"
        )
        assert not nodes_of(result.bundle.queries[0].plan, PhysIndexScan)

    def test_estimated_cost_positive_and_ordering(self, tiny_session):
        cheap = tiny_session.optimize("select r_name from region")
        pricey = tiny_session.optimize(
            "select c_nationkey, sum(l_extendedprice) as v "
            "from customer, orders, lineitem "
            "where c_custkey = o_custkey and o_orderkey = l_orderkey "
            "group by c_nationkey"
        )
        assert 0 < cheap.est_cost < pricey.est_cost


class TestCseDecisions:
    def test_example1_single_candidate_with_heuristics(self, small_session):
        result = small_session.optimize(example1_batch())
        stats = result.stats
        assert len(stats.candidate_ids) == 1
        assert stats.used_cses == stats.candidate_ids
        assert stats.cse_optimizations == 1
        candidate = result.candidates[0]
        assert candidate.definition.signature.has_groupby
        assert candidate.definition.signature.tables == (
            "customer", "lineitem", "orders",
        )

    def test_example1_five_candidates_without_heuristics(self, no_heuristics_session):
        result = no_heuristics_session.optimize(example1_batch())
        signatures = {
            (c.definition.signature.has_groupby, c.definition.signature.tables)
            for c in result.candidates
        }
        assert signatures == {
            (False, ("customer", "orders")),
            (False, ("lineitem", "orders")),
            (False, ("customer", "lineitem", "orders")),
            (True, ("lineitem", "orders")),
            (True, ("customer", "lineitem", "orders")),
        }

    def test_cse_reduces_estimated_cost(self, small_session):
        result = small_session.optimize(example1_batch())
        assert result.est_cost < result.stats.est_cost_no_cse
        # Table 1's shape: roughly 3x.
        assert result.stats.est_cost_no_cse / result.est_cost > 2.0

    def test_same_final_plan_with_and_without_pruning(
        self, small_session, no_heuristics_session
    ):
        """The paper's §6.1 check: heuristic pruning must not lose the
        optimal candidate (both modes choose the same CSE and cost)."""
        pruned = small_session.optimize(example1_batch())
        unpruned = no_heuristics_session.optimize(example1_batch())
        assert pruned.est_cost == pytest.approx(unpruned.est_cost, rel=1e-6)

    def test_no_cse_mode(self, no_cse_session):
        result = no_cse_session.optimize(example1_batch())
        assert result.stats.candidate_ids == []
        assert not result.bundle.root_spools

    def test_spool_emitted_at_root_for_cross_query_cse(self, small_session):
        result = small_session.optimize(example1_batch())
        assert len(result.bundle.root_spools) == 1
        cse_id, body = result.bundle.root_spools[0]
        assert isinstance(body, PhysProject)
        reads = [
            n
            for q in result.bundle.queries
            for n in q.plan.walk()
            if isinstance(n, PhysSpoolRead)
        ]
        assert len(reads) == 3  # every query consumes the spool

    def test_compensation_nodes_present(self, small_session):
        result = small_session.optimize(example1_batch())
        q1 = result.bundle.queries[0].plan
        read = nodes_of(q1, PhysSpoolRead)
        assert read
        # The residual nationkey range survives as a filter node.
        assert nodes_of(q1, PhysFilter)

    def test_signature_overhead_counted(self, small_session):
        result = small_session.optimize(example1_batch())
        assert result.stats.signature_registrations > 0

    def test_no_sharing_no_candidates(self, small_session):
        result = small_session.optimize(
            "select r_name from region;"
            "select n_name from nation"
        )
        assert result.stats.candidates_generated == 0
        assert result.est_cost == result.stats.est_cost_no_cse

    def test_cheap_batch_skipped_by_threshold(self, small_db, monkeypatch):
        from repro.optimizer import engine

        monkeypatch.setattr(engine, "CSE_COST_THRESHOLD", 1e12)
        session = Session(small_db, OptimizerOptions())
        result = session.optimize(example1_batch())
        assert result.stats.cse_optimizations == 0

    def test_naive_split_mode_differs(self, small_db, monkeypatch):
        correct = Session(small_db, OptimizerOptions()).optimize(example1_batch())
        monkeypatch.setattr(search, "NAIVE_COST_SPLIT", True)
        naive = Session(small_db, OptimizerOptions()).optimize(example1_batch())
        # Both run; the naive mode mis-accounts shared costs so its estimate
        # need not match the profile mode's.
        assert naive.bundle is not None
        assert correct.stats.cse_optimizations >= 1

    def test_used_cses_listed(self, small_session):
        result = small_session.optimize(example1_batch())
        assert result.stats.used_cses == [result.candidates[0].cse_id]


class TestSubqueryOptimization:
    def test_nested_query_shares_with_subquery(self, small_session):
        from repro.workloads import nested_query

        result = small_session.optimize(nested_query())
        assert len(result.stats.candidate_ids) == 1
        assert result.stats.used_cses == result.stats.candidate_ids
        # The spool settles at the batch root (consumers live in different
        # parts: the main block and the scalar subquery).
        assert len(result.bundle.root_spools) == 1
        query = result.bundle.queries[0]
        assert query.subquery_plans
        sub_plan = next(iter(query.subquery_plans.values()))
        reads_in_sub = [
            n for n in sub_plan.walk() if isinstance(n, PhysSpoolRead)
        ]
        assert reads_in_sub


class TestHistoryReuse:
    def test_plan_cache_shared_across_passes(self, small_db):
        optimizer = Optimizer(
            small_db, OptimizerOptions(enable_heuristics=False)
        )
        batch = bind_batch(small_db.catalog, example1_batch())
        _, run = optimizer.optimize_with_run(batch)
        # Groups no candidate reaches were optimized once, by the base
        # pass: the Step-3 pass read their plan sets from its table.
        reused = [
            gid for gid in run.base_plans
            if not run.footprints[gid] and gid not in run.step3_plans
        ]
        assert reused
        assert set(run.step3_plans).isdisjoint(reused)
