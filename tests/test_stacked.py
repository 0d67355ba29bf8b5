"""Dedicated unit coverage for stacked CSEs (§5.5)."""

import pytest

from repro import OptimizerOptions, Session
from repro.cse.matching import match_consumer
from repro.executor.reference import evaluate_batch
from repro.optimizer import step2
from repro.optimizer.engine import Optimizer
from repro.optimizer.physical import PhysSpoolRead
from repro.sql.binder import bind_batch
from repro.workloads import adapted_batch, complex_join_batch, example1_batch

from .rows import assert_same_rows

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
        """At SF 0.002 both candidates are materialized: E3's body reads
        E4, so E4 is written first."""
        _, result = stacked_result
        assert result.est_cost == pytest.approx(1136.69, abs=0.005)
        assert [cid for cid, _ in result.bundle.root_spools] == ["E4", "E3"]
        reads_of = {
            cid: {
                n.cse_id for n in body.walk() if isinstance(n, PhysSpoolRead)
            }
            for cid, body in result.bundle.root_spools
        }
        assert reads_of == {"E4": set(), "E3": {"E4"}}

    def test_disable_stacking_drops_body_specs(self, small_db, monkeypatch):
        monkeypatch.setattr(step2, "STACKED", False)
        optimizer = Optimizer(small_db, OptimizerOptions())
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
        assert metrics.spools_materialized == 2
        # E4 is read by Q3, Q4 and E3's body; E3 by Q1 and Q2.
        assert metrics.spool_stats["E4"].reads == 3
        assert metrics.spool_stats["E3"].reads == 2
        batch = session.bind(STACKED_SQL)
        oracle = evaluate_batch(session.database, batch)
        for query in batch.queries:
            assert_same_rows(
                outcome.execution.query(query.name).rows, oracle[query.name]
            )


def find_stacked_consumers_scan(run, candidates, profiles):
    """Oracle for ``step2._find_stacked_consumers``: the scan over every
    memo group per ordered candidate pair that its (body block name,
    signature) lookup replaced."""
    memo = run.memo
    for inner in candidates:
        for outer in candidates:
            if inner is outer:
                continue
            if not outer.signature_wider_than(inner):
                continue
            body_name = outer.definition.block.name
            if body_name not in memo.block_infos:
                continue
            for group in memo.groups:
                if group.block is None or group.block.name != body_name:
                    continue
                if group.signature != inner.definition.signature:
                    continue
                verdict, spec = match_consumer(inner.definition, profiles(group))
                if spec is not None:
                    step2._record_match(run, inner.cse_id, group, verdict)
                    run.body_specs[inner.cse_id].append(spec)
                    inner.lifted_to_root = True


def _stacking(result, run):
    """What stacked detection decides: body-side specs per candidate (in
    order), which candidates it lifts to the root, and the match tallies."""
    specs = {
        cid: [
            (
                spec.group.gid, spec.table_map, spec.residual,
                spec.column_map, spec.reagg_keys, spec.reagg_computes,
            )
            for spec in body_specs
        ]
        for cid, body_specs in run.body_specs.items()
    }
    lifted = {c.cse_id: c.lifted_to_root for c in result.candidates}
    outcomes = {cid: dict(tally) for cid, tally in run.match_outcomes.items()}
    return specs, lifted, outcomes


STACKING_BATCHES = {
    "example1": example1_batch(),
    "stacked": STACKED_SQL,
    "complex_join": complex_join_batch(),
    "tpch_all": adapted_batch(),
}


@pytest.mark.parametrize("heuristics", [True, False], ids=["h_on", "h_off"])
@pytest.mark.parametrize("name", sorted(STACKING_BATCHES))
def test_stacked_lookup_matches_scan(small_db, monkeypatch, name, heuristics):
    options = OptimizerOptions(enable_heuristics=heuristics)
    sql = STACKING_BATCHES[name]
    looked_up = Optimizer(small_db, options).optimize_with_run(
        bind_batch(small_db.catalog, sql)
    )
    monkeypatch.setattr(
        step2, "_find_stacked_consumers", find_stacked_consumers_scan
    )
    scanned = Optimizer(small_db, options).optimize_with_run(
        bind_batch(small_db.catalog, sql)
    )
    assert _stacking(*looked_up) == _stacking(*scanned)
    if name == "stacked":
        assert any(_stacking(*looked_up)[0].values())
