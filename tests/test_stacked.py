"""Dedicated unit coverage for stacked CSEs (§5.5)."""

import pytest

from repro import OptimizerOptions, Session
from repro.executor.reference import evaluate_batch
from repro.optimizer.engine import Optimizer
from repro.optimizer.physical import PhysSpoolRead
from repro.sql.binder import bind_batch

STACKED_SQL = (
    "select c_nationkey, sum(l_extendedprice) as v "
    "from customer, orders, lineitem "
    "where c_custkey = o_custkey and o_orderkey = l_orderkey "
    "group by c_nationkey;"
    "select c_mktsegment, sum(l_extendedprice) as v "
    "from customer, orders, lineitem "
    "where c_custkey = o_custkey and o_orderkey = l_orderkey "
    "group by c_mktsegment;"
    "select o_orderpriority, sum(l_extendedprice) as v "
    "from orders, lineitem where o_orderkey = l_orderkey "
    "group by o_orderpriority;"
    "select o_orderstatus, sum(l_extendedprice) as v "
    "from orders, lineitem where o_orderkey = l_orderkey "
    "group by o_orderstatus"
)


@pytest.fixture()
def stacked_result(small_db):
    optimizer = Optimizer(small_db, OptimizerOptions())
    batch = bind_batch(small_db.catalog, STACKED_SQL)
    result, run = optimizer.optimize_with_run(batch)
    return run, result


class TestStackedDetection:
    def test_wider_candidate_hosts_narrower(self, stacked_result):
        run, result = stacked_result
        wide = next(
            c for c in result.candidates
            if c.definition.signature.table_count == 3
        )
        narrow = next(
            c for c in result.candidates
            if c.definition.signature.table_count == 2
        )
        assert wide.signature_wider_than(narrow)
        assert not narrow.signature_wider_than(wide)
        body_specs = run.body_specs[narrow.cse_id]
        assert body_specs
        assert all(
            spec.group.block.name == wide.definition.block.name
            for spec in body_specs
        )

    def test_narrow_candidate_lifted(self, stacked_result):
        _, result = stacked_result
        narrow = next(
            c for c in result.candidates
            if c.definition.signature.table_count == 2
        )
        assert narrow.lifted_to_root

    def test_stacking_never_cycles(self, stacked_result):
        """Stacking is restricted to strictly-narrower-inside-wider, so
        spool dependencies are acyclic by construction."""
        run, result = stacked_result
        edges = set()
        for inner in result.candidates:
            for spec in run.body_specs[inner.cse_id]:
                outer_name = spec.group.block.name
                edges.add((inner.cse_id, outer_name))
        for inner_id, outer_body in edges:
            inner = next(
                c for c in result.candidates if c.cse_id == inner_id
            )
            outer = next(
                c for c in result.candidates
                if c.definition.block.name == outer_body
            )
            assert outer.definition.signature.table_count > (
                inner.definition.signature.table_count
            )


class TestStackedExecution:
    def test_spool_order_and_reads(self, stacked_result):
        _, result = stacked_result
        spool_ids = [cid for cid, _ in result.bundle.root_spools]
        if len(spool_ids) < 2:
            pytest.skip("stacking not chosen at this scale")
        reads_of = {
            cid: {
                n.cse_id for n in body.walk() if isinstance(n, PhysSpoolRead)
            }
            for cid, body in result.bundle.root_spools
        }
        for position, (cid, _) in enumerate(result.bundle.root_spools):
            for dep in reads_of[cid]:
                if dep in spool_ids:
                    assert spool_ids.index(dep) < position

    def test_disable_stacking_drops_body_specs(self, small_db):
        optimizer = Optimizer(
            small_db, OptimizerOptions(enable_stacked=False)
        )
        batch = bind_batch(small_db.catalog, STACKED_SQL)
        result, run = optimizer.optimize_with_run(batch)
        for candidate in result.candidates:
            assert run.body_specs[candidate.cse_id] == []
            assert not candidate.lifted_to_root or (
                candidate.lca_gid == run.root.gid
            )

    def test_stacked_execution_metrics(self, small_db):
        session = Session(small_db)
        outcome = session.execute(STACKED_SQL)
        metrics = outcome.execution.metrics
        if metrics.spools_materialized >= 2:
            # The outer spool read the inner one: reads > queries * rows.
            assert metrics.spool_rows_read > 0
        batch = session.bind(STACKED_SQL)
        oracle = evaluate_batch(session.database, batch)
        for query in batch.queries:
            got = sorted(outcome.execution.query(query.name).rows, key=repr)
            want = sorted(oracle[query.name], key=repr)
            got = [tuple(round(v, 3) if isinstance(v, float) else v for v in r) for r in got]
            want = [tuple(round(v, 3) if isinstance(v, float) else v for v in r) for r in want]
            assert got == want
