"""Late materialization: row selections pass indices on, not column copies.

Filters, scan residuals, sorts and the inner, semi and anti hash joins hand
their parents deferred gathers, and a column is gathered when an operator
first reads it. Two checks:

* differential: each physical plan runs once with the eager frames of
  :mod:`tests.eager_frames` and once with deferred ones; the rows are
  bit-identical and every :class:`ExecutionMetrics` counter is equal;
* mechanism: on the first ``fig8_warm`` batch of ``benchmarks/perf``, each
  consumer of the shared spool gathers only the spool columns its
  re-aggregate reads.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import random
import sys
from pathlib import Path

import pytest

from repro import OptimizerOptions, Session
from repro.executor import iterators
from repro.expr.evaluator import Frame, Gather
from repro.optimizer.physical import PhysFilter, PhysHashJoin, PhysSpoolRead
from repro.workloads import adapted_batch, example1_batch, scaleup_batch
from repro.workloads.generator import random_sql_batch
from repro.workloads.tpch_queries import ADAPTED_QUERIES

from .eager_frames import eager_frames


def counters(metrics) -> dict:
    """Every counter of an :class:`ExecutionMetrics`, wall times left out."""
    payload = dataclasses.asdict(metrics)
    for spool in payload["spool_stats"].values():
        for name in [name for name in spool if name.endswith("wall_time")]:
            del spool[name]
    return payload


def run_both_ways(session: Session, sql: str, workers=None):
    """Optimize ``sql`` once and run its bundle with deferred, then eager,
    frames; returns the optimization result."""
    result = session.optimize(sql)
    deferred = session.execute_bundle(result, workers=workers)
    with eager_frames():
        eager = session.execute_bundle(result, workers=workers)
    assert [r.columns for r in deferred.results] == [r.columns for r in eager.results]
    # repr is exact for floats (and tells NaN and -0.0 apart): bit-identical.
    assert [repr(r.rows) for r in deferred.results] == [
        repr(r.rows) for r in eager.results
    ]
    assert counters(deferred.metrics) == counters(eager.metrics)
    return result


def plan_nodes(bundle):
    for _, body in bundle.root_spools:
        yield from body.walk()
    for query in bundle.queries:
        yield from query.plan.walk()
        for plan in query.subquery_plans.values():
            yield from plan.walk()


def test_random_sql_batches_run_the_same_eager_and_deferred(small_db):
    """Seeds 0–59 of ``random_sql_batch``: between them their plans hold
    every join type."""
    session = Session(small_db, OptimizerOptions())
    join_shapes = set()
    for seed in range(60):
        result = run_both_ways(session, random_sql_batch(seed))
        for node in plan_nodes(result.bundle):
            if isinstance(node, PhysHashJoin):
                join_shapes.add(node.join_type)
    assert join_shapes == {"inner", "left_outer", "semi", "anti"}


#: the 8 TPC-H queries bring a join residual (Q19), an index scan with a
#: residual (Q10) and sorts.
BATCHES = {
    "example1": example1_batch(),
    "scaleup6": scaleup_batch(6),
    "tpch_all": adapted_batch(),
    **{f"tpch_{name}": adapted_batch(name) for name in ADAPTED_QUERIES},
}


@pytest.mark.parametrize("name", sorted(BATCHES))
def test_batches_run_the_same_eager_and_deferred(small_db, name):
    run_both_ways(Session(small_db, OptimizerOptions()), BATCHES[name])


@pytest.mark.parametrize("shared_scans", [True, False], ids=["shared", "unshared"])
def test_parallel_runs_the_same_eager_and_deferred(small_db, shared_scans):
    """Two workers, with and without shared scans (unshared scans apply
    their residuals themselves)."""
    session = Session(small_db, OptimizerOptions(), shared_scans=shared_scans)
    run_both_ways(session, scaleup_batch(6) + ";" + adapted_batch(), workers=2)


def fig8_warm_first_batch() -> str:
    """The first batch ``benchmarks/perf`` replays on ``fig8_warm``, seed 7."""
    path = Path(__file__).parents[1] / "benchmarks" / "perf" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perf_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    queries = workloads.SPECS["fig8_warm"].batch_queries
    rng = random.Random("fig8_warm:7")
    return workloads.batch_sql(workloads.fig8_batches(rng, queries, 1)[0])


def spool_read_below(plan):
    """The spool read an aggregate re-aggregates (past its compensation
    filters), or None."""
    node = plan.child
    while isinstance(node, PhysFilter):
        node = node.child
    return node if isinstance(node, PhysSpoolRead) else None


def test_fig8_warm_consumers_gather_only_what_they_aggregate(small_db, monkeypatch):
    """Each consumer filters the spool and re-aggregates a few of its
    columns: the filter gathers nothing, and the aggregate gathers exactly
    the spool columns it reads (keys and arguments), not the others."""
    spool_columns = {}  # id(spool array) -> the consumer's key for it
    running = []  # the HashAggs executing, innermost last
    gathered = []  # per HashAgg: (plan, spool columns it gathered)
    real_spool_read, real_hash_agg = iterators._spool_read, iterators._hash_agg
    real_getitem = Frame.__getitem__

    def spool_read(plan, ctx):
        frame = real_spool_read(plan, ctx)
        spool_columns.update((id(column), key) for key, column in frame.items())
        return frame

    def getitem(frame, key):
        column = dict.__getitem__(frame, key)
        if type(column) is Gather and id(column.source) in spool_columns:
            running[-1].add(spool_columns[id(column.source)])
        return real_getitem(frame, key)

    def hash_agg(plan, ctx):
        running.append(set())
        try:
            return real_hash_agg(plan, ctx)
        finally:
            gathered.append((plan, running.pop()))

    monkeypatch.setattr(iterators, "_spool_read", spool_read)
    monkeypatch.setattr(iterators, "_hash_agg", hash_agg)
    monkeypatch.setattr(Frame, "__getitem__", getitem)
    outcome = Session(small_db, OptimizerOptions()).execute(fig8_warm_first_batch())
    assert outcome.optimization.stats.used_cses, "the batch shares no spool"

    consumers = 0
    for plan, columns in gathered:
        read = spool_read_below(plan)
        if read is None:
            assert not columns, plan.describe()
            continue
        consumers += 1
        spool = {expr for _, expr in read.column_map}
        wanted = set(plan.keys)
        for compute in plan.computes:
            if compute.arg is not None:
                wanted |= set(compute.arg.columns()) | {compute.arg}
        assert columns == wanted & spool, plan.describe()
        assert len(columns) < len(spool)
    assert consumers == 10
