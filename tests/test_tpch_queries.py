"""The adapted TPC-H queries: they bind, optimize, execute, and match the
oracle — individually and as sharing batches."""

import pytest

from repro import OptimizerOptions, Session
from repro.executor.reference import evaluate_batch
from repro.workloads.tpch_queries import (
    ADAPTED_QUERIES,
    SHARING_PAIRS,
    adapted_batch,
    adapted_query,
)

from .rows import assert_same_rows


class TestIndividualQueries:
    @pytest.mark.parametrize("name", sorted(ADAPTED_QUERIES))
    def test_matches_oracle(self, tiny_db, name):
        session = Session(tiny_db)
        batch = session.bind(adapted_query(name))
        outcome = session.execute(batch)
        oracle = evaluate_batch(session.database, batch)
        assert_same_rows(outcome.execution.results[0].rows, oracle["Q1"], name)

    @pytest.mark.parametrize("name", sorted(ADAPTED_QUERIES))
    def test_positive_costs(self, tiny_db, name):
        result = Session(tiny_db).optimize(adapted_query(name))
        assert result.est_cost > 0

    def test_q1_order_by_returnflag(self, tiny_db):
        outcome = Session(tiny_db).execute(adapted_query("Q1"))
        flags = [row[0] for row in outcome.execution.results[0].rows]
        assert flags == sorted(flags)

    def test_q6_is_scalar(self, tiny_db):
        outcome = Session(tiny_db).execute(adapted_query("Q6"))
        assert outcome.execution.results[0].row_count == 1

    def test_q19_disjunction(self, tiny_db):
        outcome = Session(tiny_db).execute(adapted_query("Q19"))
        assert outcome.execution.results[0].row_count == 1


class TestSharingBatches:
    @pytest.mark.parametrize("pair", SHARING_PAIRS, ids=lambda p: "+".join(p))
    def test_pairs_share_and_match_oracle(self, small_db, pair):
        sql = adapted_batch(*pair)
        session = Session(small_db)
        batch = session.bind(sql)
        result = session.optimize(batch)
        # The pairs are chosen to present sharable signatures.
        assert result.stats.sharable_buckets >= 1
        outcome = session.execute_bundle(result)
        oracle = evaluate_batch(session.database, batch)
        for query in batch.queries:
            assert_same_rows(outcome.query(query.name).rows, oracle[query.name])

    def test_full_suite_batch_runs(self, tiny_db):
        session = Session(tiny_db)
        batch = session.bind(adapted_batch())
        outcome = session.execute(batch)
        assert len(outcome.execution.results) == len(ADAPTED_QUERIES)
        oracle = evaluate_batch(session.database, batch)
        for query in batch.queries:
            assert_same_rows(
                outcome.execution.query(query.name).rows, oracle[query.name]
            )

    def test_q3_q10_sharing_reduces_cost(self, small_db):
        sql = adapted_batch("Q3", "Q10")
        shared = Session(small_db).optimize(sql)
        base = Session(small_db, OptimizerOptions(enable_cse=False)).optimize(sql)
        # The optimizer may or may not find sharing beneficial here; it must
        # never be worse, and candidates must exist.
        assert shared.est_cost <= base.est_cost + 1e-6
