"""Property-based test: materialized views stay equal to from-scratch
recomputation under random sequences of inserts and deletes."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import HealthCheck, given, settings

from repro.catalog.tpch import build_tpch_database
from repro.views.maintenance import MaintenancePlanner

from ..matrix import SEGMENTS, assert_views_equal_recomputation, maintained_views


@st.composite
def operations(draw):
    """A short random program of inserts of new customer rows and deletes
    of rows inserted earlier."""
    steps = []
    next_key = 90_000_000
    live = []
    for _ in range(draw(st.integers(1, 4))):
        if live and draw(st.booleans()):
            count = draw(st.integers(1, min(3, len(live))))
            steps.append(("delete", live[:count]))
            live = live[count:]
            continue
        rows = []
        for _ in range(draw(st.integers(1, 4))):
            rows.append((
                next_key,
                f"Customer#{next_key}",
                draw(st.integers(0, 24)),
                draw(st.sampled_from(SEGMENTS)),
                float(draw(st.integers(0, 1000))),
            ))
            next_key += 1
        live.extend(rows)
        steps.append(("insert", rows))
    return steps


SETTINGS = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)


class TestMaintenanceRoundtrip:
    @given(operations())
    @SETTINGS
    def test_incremental_equals_recompute(self, steps):
        db = build_tpch_database(scale_factor=0.0005)
        manager = maintained_views(db)
        planner = MaintenancePlanner(db, manager)
        for op, rows in steps:
            if op == "insert":
                planner.apply_insert("customer", rows)
            else:
                planner.apply_delete("customer", rows)
        assert_views_equal_recomputation(db, manager)

    @given(
        st.lists(st.integers(1, 40), min_size=3, max_size=3),
        st.integers(0, 2**16),
    )
    @SETTINGS
    def test_successive_writes_through_one_cached_plan(self, sizes, seed):
        """Three inserts of different sizes, then a delete, through one
        planner: every write after the first re-runs the plan costed for
        the first delta. The new customers reuse existing keys, so their
        deltas join with stored orders."""
        db = build_tpch_database(scale_factor=0.0005)
        manager = maintained_views(db)
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
        assert_views_equal_recomputation(db, manager)
