"""§6.4 — maintenance of multiple materialized views.

Three materialized views defined as the Example 1 queries; the customer
table receives an insert batch. The maintenance expressions (over the
delta table) share a covering subexpression, reproducing the paper's
"maintenance time was reduced by a factor of three".
"""

import numpy as np
import pytest

from repro.bench.harness import bench_scale_factor
from repro.catalog.tpch import build_tpch_database
from repro.optimizer.options import OptimizerOptions
from repro.views.maintenance import MaintenancePlanner
from repro.workloads.example1 import example1_views

PAPER_REFERENCE = "maintenance time reduced by a factor of three (§6.4)"


def _fresh_setup():
    db = build_tpch_database(scale_factor=min(bench_scale_factor(), 0.005))
    return db, example1_views(db)


def _delta_rows(count=100, start=50_000_000):
    rng = np.random.default_rng(99)
    segments = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
    return [
        (
            start + i,
            f"Customer#{start + i}",
            int(rng.integers(0, 25)),
            segments[int(rng.integers(0, 5))],
            float(np.round(rng.uniform(0, 1000), 2)),
        )
        for i in range(count)
    ]


def test_view_maintenance_sharing(benchmark):
    db, manager = _fresh_setup()
    rows = _delta_rows()

    with_cse = MaintenancePlanner(db, manager, OptimizerOptions()).apply_insert(
        "customer", rows
    )

    def without_cse(shared_scans):
        db2, manager2 = _fresh_setup()
        planner = MaintenancePlanner(
            db2, manager2, OptimizerOptions(enable_cse=False)
        )
        planner.session.shared_scans = shared_scans
        return planner.apply_insert("customer", rows)

    # The paper's baseline shares nothing; this engine's default still
    # shares the scans of orders and lineitem between the three queries.
    without = without_cse(shared_scans=False)
    scans_only = without_cse(shared_scans=True)

    ratio = without.measured_cost / with_cse.measured_cost
    print("\n== View maintenance (3 materialized views, insert into customer) ==")
    print(f"maintenance cost, nothing shared:  {without.measured_cost:10.2f}")
    print(f"maintenance cost, scans shared:    {scans_only.measured_cost:10.2f}")
    print(f"maintenance cost with CSEs:        {with_cse.measured_cost:10.2f}")
    print(f"reduction factor:                  {ratio:10.2f}x")
    print(f"  over shared scans only:          "
          f"{scans_only.measured_cost / with_cse.measured_cost:10.2f}x")
    print(f"estimated cost with CSEs:          {with_cse.est_cost:10.2f}")
    print(f"shared CSEs used:                  {with_cse.optimization.stats.used_cses}")
    print(f"paper reference: {PAPER_REFERENCE}")

    assert with_cse.optimization.stats.used_cses
    assert ratio > 2.0
    assert sorted(with_cse.affected_views) == ["mv1", "mv2", "mv3"]

    benchmark.extra_info["cost_with_cse"] = round(with_cse.measured_cost, 2)
    benchmark.extra_info["cost_without_cse"] = round(without.measured_cost, 2)
    benchmark.extra_info["cost_scans_shared"] = round(scans_only.measured_cost, 2)
    benchmark.extra_info["reduction"] = round(ratio, 2)

    def run():
        db3, manager3 = _fresh_setup()
        return MaintenancePlanner(db3, manager3).apply_insert(
            "customer", _delta_rows(50, start=90_000_000)
        )

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_delta_signatures_never_mix_with_base(benchmark):
    """Delta expressions get the signature name delta(customer): they share
    among themselves, never with base-table expressions."""
    db, manager = _fresh_setup()
    planner = MaintenancePlanner(db, manager)
    batch, _ = planner.build_maintenance_batch("customer", "customer")
    signatures = set()
    for query in batch.queries:
        for table in query.block.tables:
            signatures.add(table.signature_name)
    assert "delta(customer)" in signatures
    assert "customer" not in signatures
    benchmark(lambda: planner.build_maintenance_batch("customer", "customer"))
