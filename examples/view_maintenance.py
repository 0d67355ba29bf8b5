"""§6.4: maintaining multiple similar materialized views after an insert.

Three materialized views over customer ⋈ orders ⋈ lineitem; an insert into
``customer`` produces a delta table, and the three maintenance queries —
each joining the delta against orders and lineitem — share one covering
subexpression.

Run:  python examples/view_maintenance.py
"""

import numpy as np

from repro import OptimizerOptions, Session
from repro.views.maintenance import MaintenancePlanner
from repro.workloads.example1 import example1_views


def new_customers(count=100, start=70_000_000):
    rng = np.random.default_rng(2007)
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


def main() -> None:
    database = Session.tpch(scale_factor=0.005).database

    views = example1_views(database)
    for view in views.views():
        print(f"materialized {view.name}: {view.contents.row_count} rows")

    planner = MaintenancePlanner(database, views, OptimizerOptions())
    outcome = planner.apply_insert("customer", new_customers())

    stats = outcome.optimization.stats
    print(f"\ninsert of {outcome.delta_rows} customer rows affects "
          f"{outcome.affected_views}")
    print(f"maintenance candidates : {stats.candidate_ids}")
    print(f"shared CSEs used       : {stats.used_cses}")
    print("the shared expression reads the *delta* table — its signature "
          "is delta(customer), so it never mixes with base-table plans")
    print(f"maintenance cost       : {outcome.measured_cost:.1f} units")
    print(f"rows merged per view   : {outcome.applied_rows}")

    print("\nmaintenance plan:")
    print(outcome.optimization.bundle.describe())


if __name__ == "__main__":
    main()
