"""Unit tests for the pruning heuristics (paper §4.3, Examples 5-9)."""

import itertools

import pytest

from repro.cse.construct import construct_cse
from repro.cse.heuristics import (
    candidate_total_cost,
    cse_usage_cost,
    heuristic1_keep,
    heuristic2_filter,
    heuristic4_filter,
    is_contained,
    merge_benefit,
)
from repro.optimizer.cardinality import CardinalityEstimator
from repro.optimizer.cost import CostModel
from repro.optimizer.engine import Optimizer
from repro.optimizer.memo import Group, Memo
from repro.optimizer.options import OptimizerOptions
from repro.sql.binder import bind_batch
from repro.workloads import example1_batch


def _group(gid, rows, width, lower, upper=None):
    group = Group(
        gid=gid, kind="join", block=None, part_id="x",
        items=frozenset(), tables=frozenset(),
    )
    group.est_rows = rows
    group.row_width = width
    group.lower_bound = lower
    group.upper_bound = upper if upper is not None else lower
    return group


class TestHeuristic1:
    def test_cheap_consumers_pruned(self):
        consumers = [_group(1, 100, 8, 1.0), _group(2, 100, 8, 1.5)]
        assert not heuristic1_keep(consumers, batch_cost=1000.0, alpha=0.10)

    def test_expensive_consumers_kept(self):
        consumers = [_group(1, 100, 8, 60.0), _group(2, 100, 8, 55.0)]
        assert heuristic1_keep(consumers, batch_cost=1000.0, alpha=0.10)

    def test_boundary_inclusive(self):
        consumers = [_group(1, 100, 8, 50.0), _group(2, 100, 8, 50.0)]
        assert heuristic1_keep(consumers, batch_cost=1000.0, alpha=0.10)

    def test_alpha_zero_keeps_everything(self):
        consumers = [_group(1, 100, 8, 0.0)]
        assert heuristic1_keep(consumers, batch_cost=1000.0, alpha=0.0)


class TestHeuristic2:
    def test_huge_cheap_result_excluded(self):
        """Example 6's Q4: 'select *' — cheap to compute, huge to spool."""
        cost_model = CostModel()
        # Very wide result, cheap upper bound.
        huge = _group(1, 100_000, 400, lower=10.0, upper=10.0)
        kept = heuristic2_filter([huge, huge], cost_model)
        assert kept == []

    def test_expensive_small_result_kept(self):
        cost_model = CostModel()
        good = _group(1, 100, 24, lower=500.0, upper=500.0)
        kept = heuristic2_filter([good, good], cost_model)
        assert len(kept) == 2

    def test_mixed(self):
        cost_model = CostModel()
        good = _group(1, 100, 24, lower=500.0, upper=500.0)
        bad = _group(2, 200_000, 400, lower=5.0, upper=5.0)
        kept = heuristic2_filter([good, bad, good], cost_model)
        assert all(g.est_rows == 100 for g in kept)

    def test_empty_input(self):
        assert heuristic2_filter([], CostModel()) == []


class TestMergeBenefit:
    """Heuristic 3 (§4.3.3, Example 7)."""

    @pytest.fixture()
    def example1_memo(self, small_db):
        memo = Memo(CardinalityEstimator(small_db), OptimizerOptions())
        batch = bind_batch(small_db.catalog, example1_batch())
        tops = [memo.build_block(q.block, q.name) for q in batch.queries]
        memo.build_root(tops)
        # Populate bounds the way normal optimization would.
        optimizer = Optimizer(small_db)
        optimizer.optimize(bind_batch(small_db.catalog, example1_batch()))
        for g in memo.groups:
            if g.kind != "root":
                g.lower_bound = g.upper_bound = g.est_rows * 0.1 + 10.0
        return memo, tops

    def test_merging_similar_consumers_beneficial(self, example1_memo, small_db):
        memo, tops = example1_memo
        counter = itertools.count(5000)
        alloc = lambda: next(counter)
        estimator = CardinalityEstimator(small_db)
        cost_model = CostModel()
        single_a = construct_cse("A", [tops[0]], memo.block_infos, alloc, estimator)
        single_b = construct_cse("B", [tops[1]], memo.block_infos, alloc, estimator)
        merged = construct_cse(
            "M", [tops[0], tops[1]], memo.block_infos, alloc, estimator
        )
        delta = merge_benefit(merged, [single_a, single_b], cost_model)
        assert delta > 0  # sharing one evaluation of the same join pays off

    def test_usage_cost_components(self, example1_memo, small_db):
        memo, tops = example1_memo
        counter = itertools.count(6000)
        estimator = CardinalityEstimator(small_db)
        definition = construct_cse(
            "C", [tops[0], tops[1]], memo.block_infos,
            lambda: next(counter), estimator,
        )
        c_e, c_w, c_r = cse_usage_cost(definition, CostModel())
        assert c_e == max(g.lower_bound for g in definition.consumer_groups)
        assert c_w > 0 and c_r > 0
        total = candidate_total_cost(definition, CostModel())
        assert total == pytest.approx(c_e + c_w + 2 * c_r)


class TestHeuristic4:
    """Containment checking (Definition 4.2, Examples 8/9)."""

    @pytest.fixture()
    def candidates(self, small_db):
        optimizer = Optimizer(
            small_db, OptimizerOptions(enable_heuristics=False)
        )
        batch = bind_batch(small_db.catalog, example1_batch())
        result, run = optimizer.optimize_with_run(batch)
        memo = run.memo
        return memo, {c.cse_id: c.definition for c in result.candidates}

    def test_join_contained_in_aggregation(self, candidates):
        """Example 9: the 3-way join candidate is contained by the
        aggregated candidate over the same tables."""
        memo, defs = candidates
        join3 = next(
            d for d in defs.values()
            if not d.has_groupby and d.signature.table_count == 3
        )
        agg3 = next(
            d for d in defs.values()
            if d.has_groupby and d.signature.table_count == 3
        )
        assert is_contained(join3, agg3, memo)
        assert not is_contained(agg3, join3, memo)

    def test_narrow_join_contained_in_wide(self, candidates):
        memo, defs = candidates
        join2 = next(
            d for d in defs.values()
            if not d.has_groupby and d.signature.table_count == 2
        )
        join3 = next(
            d for d in defs.values()
            if not d.has_groupby and d.signature.table_count == 3
        )
        assert is_contained(join2, join3, memo)

    def test_not_contained_by_itself(self, candidates):
        memo, defs = candidates
        any_def = next(iter(defs.values()))
        assert not is_contained(any_def, any_def, memo)

    def test_filter_prunes_to_aggregated_candidate(self, candidates):
        """With β=90% only the small aggregated candidate survives
        containment (the paper's Figure 6 outcome before Heuristic 1)."""
        memo, defs = candidates
        survivors = heuristic4_filter(list(defs.values()), memo, beta=0.90)
        assert len(survivors) < len(defs)
        agg3 = next(
            d for d in defs.values()
            if d.has_groupby and d.signature.table_count == 3
        )
        assert agg3 in survivors
        join3 = next(
            d for d in defs.values()
            if not d.has_groupby and d.signature.table_count == 3
        )
        assert join3 not in survivors

    def test_beta_huge_keeps_contained(self, candidates):
        memo, defs = candidates
        survivors = heuristic4_filter(
            list(defs.values()), memo, beta=1e9
        )
        assert len(survivors) == len(defs)
