"""Ablations of the design choices DESIGN.md calls out.

Each ablation flips one module constant and reports its effect on the
Example 1 batch (plus the stacked workload where relevant):

* ``search.NAIVE_COST_SPLIT = True`` — the §5.2 pathology: splitting the
  initial cost among *potential* consumers at substitution time;
* ``step2.STACKED = False`` — no CSEs inside CSE bodies (§5.5);
* ``memo.PREAGG = False`` — no eager group-by exploration: the aggregated
  candidates (Figure 6's E4/E5) disappear;
* ``step2.DYNAMIC_LCA = False`` — static least-common-ancestor placement;
* ``heuristics.ALPHA`` / ``heuristics.BETA`` sweeps for Heuristics 1 and 4.

The constants are read at call time and are not part of the plan-cache
key, so every arm optimizes in a fresh session.
"""

from unittest.mock import patch

import pytest

from repro.api import Session
from repro.cse import heuristics
from repro.optimizer import memo, search, step2
from repro.workloads import example1_batch

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


def _run(db, sql):
    return Session(db).optimize(sql)


def test_ablation_preaggregation(benchmark, bench_db, monkeypatch):
    """Without the eager group-by rule the aggregated candidates (the ones
    the paper's final plans actually use) never exist."""
    baseline = _run(bench_db, example1_batch())
    monkeypatch.setattr(memo, "PREAGG", False)
    ablated = _run(bench_db, example1_batch())
    print("\n== Ablation: pre-aggregation exploration ==")
    print(f"  with preagg:    est {baseline.est_cost:9.1f}  "
          f"used {baseline.stats.used_cses}")
    print(f"  without preagg: est {ablated.est_cost:9.1f}  "
          f"used {ablated.stats.used_cses}")
    # Without the eager group-by rule Q3's pre-aggregated consumer never
    # exists, so the aggregated candidate covers only Q1 and Q2.
    baseline_consumers = max(
        len(c.definition.consumer_groups) for c in baseline.candidates
    )
    ablated_agg = [
        c for c in ablated.candidates if c.definition.has_groupby
    ]
    assert all(
        len(c.definition.consumer_groups) < baseline_consumers
        for c in ablated_agg
    )
    assert baseline.est_cost < ablated.est_cost
    benchmark(lambda: _run(bench_db, example1_batch()))


def test_ablation_naive_cost_split(benchmark, bench_db, monkeypatch):
    """The naive scheme still executes correctly but mis-accounts shared
    costs (Example 10's pathology)."""
    correct = Session(bench_db).execute(example1_batch())
    monkeypatch.setattr(search, "NAIVE_COST_SPLIT", True)
    naive = Session(bench_db).execute(example1_batch())
    print("\n== Ablation: naive initial-cost splitting (§5.2) ==")
    print(f"  profile accounting: est {correct.est_cost:9.1f} "
          f"measured {correct.execution.metrics.cost_units:9.1f}")
    print(f"  naive splitting:    est {naive.est_cost:9.1f} "
          f"measured {naive.execution.metrics.cost_units:9.1f}")
    # The profile-correct accounting never executes a worse plan than the
    # naive scheme (on Example 1 all consumers share, so the two coincide;
    # the pathological divergence is exercised in the unit tests).
    assert (
        correct.execution.metrics.cost_units
        <= naive.execution.metrics.cost_units * 1.0001
    )
    benchmark(lambda: _run(bench_db, example1_batch()))


def test_ablation_stacked(benchmark, bench_db):
    stacked = _run(bench_db, STACKED_SQL)
    with patch.object(step2, "STACKED", False):
        flat = _run(bench_db, STACKED_SQL)
    print("\n== Ablation: stacked CSEs (§5.5) ==")
    print(f"  stacking on:  est {stacked.est_cost:9.1f} used {stacked.stats.used_cses}")
    print(f"  stacking off: est {flat.est_cost:9.1f} used {flat.stats.used_cses}")
    assert stacked.est_cost <= flat.est_cost
    benchmark(lambda: _run(bench_db, STACKED_SQL))


def test_ablation_alpha(benchmark, bench_db, monkeypatch):
    """Heuristic 1 sweep: with α=0 nothing is 'too cheap'; very large α
    prunes every candidate."""
    with patch.object(heuristics, "ALPHA", 0.0):
        loose = _run(bench_db, example1_batch())
    default = _run(bench_db, example1_batch())
    with patch.object(heuristics, "ALPHA", 1.0):
        strict = _run(bench_db, example1_batch())
    print("\n== Ablation: Heuristic 1 threshold α ==")
    for label, result in (("α=0", loose), ("α=0.1", default), ("α=1.0", strict)):
        print(
            f"  {label:>6}: candidates={result.stats.candidates_generated} "
            f"est={result.est_cost:9.1f}"
        )
    assert loose.stats.candidates_generated >= default.stats.candidates_generated
    assert strict.stats.candidates_generated <= default.stats.candidates_generated
    monkeypatch.setattr(heuristics, "ALPHA", 0.0)
    benchmark(lambda: _run(bench_db, example1_batch()))


def test_ablation_beta(benchmark, bench_db, monkeypatch):
    """Heuristic 4 sweep: β=∞ keeps every contained candidate."""
    default = _run(bench_db, example1_batch())
    monkeypatch.setattr(heuristics, "BETA", 1e12)
    keep_all = _run(bench_db, example1_batch())
    print("\n== Ablation: Heuristic 4 threshold β ==")
    print(f"  β=0.9:  candidates={default.stats.candidates_generated}")
    print(f"  β=inf:  candidates={keep_all.stats.candidates_generated}")
    assert keep_all.stats.candidates_generated > default.stats.candidates_generated
    # Same final plan cost: pruning only removed dominated candidates.
    assert default.est_cost == pytest.approx(keep_all.est_cost, rel=1e-9)
    benchmark(lambda: _run(bench_db, example1_batch()))


def test_ablation_static_lca(benchmark, bench_db, monkeypatch):
    dynamic = _run(bench_db, example1_batch())
    monkeypatch.setattr(step2, "DYNAMIC_LCA", False)
    static = _run(bench_db, example1_batch())
    print("\n== Ablation: dynamic vs static LCA (§5.2) ==")
    print(f"  dynamic: est {dynamic.est_cost:9.1f}")
    print(f"  static:  est {static.est_cost:9.1f}")
    # Both are correct; dynamic may settle lower in the DAG but never
    # produces a worse plan on this workload.
    assert dynamic.est_cost <= static.est_cost * 1.001
    benchmark(lambda: _run(bench_db, example1_batch()))
