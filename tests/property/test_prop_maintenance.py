"""Property-based test: materialized views stay equal to from-scratch
recomputation under random sequences of inserts and deletes."""

import numpy as np
import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.catalog.tpch import build_tpch_database
from repro.views.maintenance import MaintenancePlanner
from repro.views.materialized import ViewManager

VIEW_SQL = (
    "select c_nationkey, sum(o_totalprice) as total, count(*) as n "
    "from customer, orders where c_custkey = o_custkey "
    "group by c_nationkey"
)

CUSTOMER_VIEW_SQL = (
    "select c_nationkey, sum(c_acctbal) as bal, count(*) as n "
    "from customer group by c_nationkey"
)

SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]


def _view_dict(view):
    table = view.contents
    rows = list(zip(*[table.column(n).tolist() for n in table.column_names]))
    return {
        r[0]: tuple(round(v, 4) if isinstance(v, float) else v for v in r[1:])
        for r in rows
    }


@st.composite
def operations(draw):
    """A short random program of inserts/deletes of customer rows."""
    steps = []
    next_key = 90_000_000
    live = []
    for _ in range(draw(st.integers(1, 4))):
        if live and draw(st.booleans()):
            count = draw(st.integers(1, min(3, len(live))))
            victims = live[:count]
            live = live[count:]
            steps.append(("delete", victims))
        else:
            count = draw(st.integers(1, 4))
            rows = []
            for _ in range(count):
                rows.append(
                    (
                        next_key,
                        f"Customer#{next_key}",
                        draw(st.integers(0, 24)),
                        SEGMENTS[draw(st.integers(0, 4))],
                        float(draw(st.integers(0, 1000))),
                    )
                )
                next_key += 1
            live.extend(rows)
            steps.append(("insert", rows))
    return steps


class TestMaintenanceRoundtrip:
    @given(operations())
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    def test_incremental_equals_recompute(self, steps):
        db = build_tpch_database(scale_factor=0.0005)
        manager = ViewManager(db)
        manager.create_view("v", VIEW_SQL)
        manager.refresh("v")
        planner = MaintenancePlanner(db, manager)
        for op, rows in steps:
            if op == "insert":
                planner.apply_insert("customer", rows)
            else:
                planner.apply_delete("customer", rows)
        incremental = _view_dict(manager.view("v"))
        fresh = ViewManager(db)
        fresh.create_view("f", VIEW_SQL)
        fresh.refresh("f")
        assert incremental == _view_dict(fresh.view("f"))

    @given(
        st.lists(st.integers(1, 40), min_size=3, max_size=3),
        st.integers(0, 2**16),
    )
    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    def test_successive_writes_through_one_cached_plan(self, sizes, seed):
        """Three inserts of different sizes, then a delete, through one
        planner: every write after the first re-runs the plan costed for
        the first delta. The new customers reuse existing keys, so their
        deltas join with stored orders."""
        db = build_tpch_database(scale_factor=0.0005)
        views = {"v": VIEW_SQL, "c": CUSTOMER_VIEW_SQL}
        manager = ViewManager(db)
        fresh = ViewManager(db)
        for name, sql in views.items():
            manager.create_view(name, sql)
            fresh.create_view(name, sql)
        manager.refresh_all()
        planner = MaintenancePlanner(db, manager)
        rng = np.random.default_rng(seed)
        keys = db.table("customer").column("c_custkey")
        written = []
        for size in sizes:
            rows = [
                (
                    int(rng.choice(keys)),
                    f"Again#{len(written) + i}",
                    int(rng.integers(0, 25)),
                    SEGMENTS[int(rng.integers(0, 5))],
                    float(rng.integers(0, 1000)),
                )
                for i in range(size)
            ]
            planner.apply_insert("customer", rows)
            written.extend(rows)
        planner.apply_delete("customer", written[::2])
        assert planner.session.plan_cache.hits == 3
        fresh.refresh_all()
        for name in views:
            assert _view_dict(manager.view(name)) == _view_dict(
                fresh.view(name)
            ), name
