"""Delete maintenance: subtracting deltas from materialized views."""

import numpy as np
import pytest

from repro import OptimizerOptions
from repro.catalog.tpch import build_tpch_database
from repro.errors import CatalogError, UnsupportedFeatureError
from repro.views.maintenance import MaintenancePlanner
from repro.views.materialized import ViewManager

SUM_VIEW = (
    "select c_nationkey, sum(l_extendedprice) as le, count(*) as n "
    "from customer, orders, lineitem "
    "where c_custkey = o_custkey and o_orderkey = l_orderkey "
    "group by c_nationkey"
)

MINMAX_VIEW = (
    "select c_nationkey, max(o_totalprice) as hi "
    "from customer, orders where c_custkey = o_custkey "
    "group by c_nationkey"
)

SPJ_VIEW = "select c_custkey, c_nationkey from customer where c_nationkey < 5"


@pytest.fixture()
def db():
    return build_tpch_database(scale_factor=0.001)


def _existing_customers(db, count=20):
    table = db.table("customer")
    return table.rows()[:count]


def _view_dict(view):
    table = view.contents
    rows = list(zip(*[table.column(n).tolist() for n in table.column_names]))
    key_count = sum(
        1 for o in view.query.block.output if not o.expr.contains_aggregate()
    )
    return {
        tuple(r[:key_count]): tuple(
            round(v, 4) if isinstance(v, float) else v for v in r[key_count:]
        )
        for r in rows
    }


class TestDeleteMaintenance:
    def test_delete_equals_recompute(self, db):
        manager = ViewManager(db)
        manager.create_view("v", SUM_VIEW)
        manager.refresh("v")
        rows = _existing_customers(db, 25)
        planner = MaintenancePlanner(db, manager)
        outcome = planner.apply_delete("customer", rows)
        assert outcome.delta_rows == 25
        incremental = _view_dict(manager.view("v"))
        fresh = ViewManager(db)
        fresh.create_view("f", SUM_VIEW)
        fresh.refresh("f")
        assert incremental == _view_dict(fresh.view("f"))

    def test_base_table_shrinks(self, db):
        manager = ViewManager(db)
        manager.create_view("v", SUM_VIEW)
        manager.refresh("v")
        before = db.table("customer").row_count
        MaintenancePlanner(db, manager).apply_delete(
            "customer", _existing_customers(db, 10)
        )
        assert db.table("customer").row_count == before - 10

    def test_insert_then_delete_roundtrip(self, db):
        manager = ViewManager(db)
        manager.create_view("v", SUM_VIEW)
        manager.refresh("v")
        baseline = _view_dict(manager.view("v"))
        planner = MaintenancePlanner(db, manager)
        new_rows = [
            (10_000_000 + i, f"Customer#{i}", i % 25, "BUILDING", 10.0)
            for i in range(15)
        ]
        planner.apply_insert("customer", new_rows)
        planner.apply_delete("customer", new_rows)
        assert _view_dict(manager.view("v")) == baseline

    def test_minmax_view_rejected(self, db):
        manager = ViewManager(db)
        manager.create_view("v", MINMAX_VIEW)
        manager.refresh("v")
        with pytest.raises(UnsupportedFeatureError):
            MaintenancePlanner(db, manager).apply_delete(
                "customer", _existing_customers(db, 1)
            )

    def test_spj_view_delete(self, db):
        manager = ViewManager(db)
        manager.create_view("flat", SPJ_VIEW)
        manager.refresh("flat")
        before = manager.view("flat").contents.row_count
        rows = _existing_customers(db, 30)
        matching = sum(1 for r in rows if r[2] < 5)
        assert matching > 0
        MaintenancePlanner(db, manager).apply_delete("customer", rows)
        assert manager.view("flat").contents.row_count == before - matching

    def test_groups_vanish_at_zero_count(self, db):
        manager = ViewManager(db)
        manager.create_view(
            "v",
            "select c_custkey, sum(o_totalprice) as t, count(*) as n "
            "from customer, orders where c_custkey = o_custkey "
            "group by c_custkey",
        )
        manager.refresh("v")
        table = db.table("customer")
        victim = table.rows()[0]
        groups_before = _view_dict(manager.view("v"))
        MaintenancePlanner(db, manager).apply_delete("customer", [victim])
        groups_after = _view_dict(manager.view("v"))
        if (victim[0],) in groups_before:
            assert (victim[0],) not in groups_after

    def test_delete_shares_cse_across_views(self, db):
        manager = ViewManager(db)
        manager.create_view("v1", SUM_VIEW)
        manager.create_view(
            "v2", SUM_VIEW.replace("c_nationkey", "c_mktsegment")
        )
        manager.refresh_all()
        planner = MaintenancePlanner(db, manager)
        outcome = planner.apply_delete("customer", _existing_customers(db, 40))
        assert outcome.optimization.stats.used_cses

    def test_delete_one_of_two_identical_rows(self, db):
        """Bag semantics on the base table too: deleting one copy of a
        duplicated row leaves the other, in the table and in the views."""
        twin = db.table("customer").rows()[0]
        db.insert("customer", [twin])
        views = {"flat": SPJ_VIEW.replace("< 5", "< 25"), "agg": SUM_VIEW}
        manager = ViewManager(db)
        fresh = ViewManager(db)
        for name, sql in views.items():
            manager.create_view(name, sql)
            fresh.create_view(name, sql)
        manager.refresh_all()
        MaintenancePlanner(db, manager).apply_delete("customer", [twin])
        assert db.table("customer").rows().count(twin) == 1
        fresh.refresh_all()
        assert sorted(manager.view("flat").contents.rows()) == sorted(
            fresh.view("flat").contents.rows()
        )
        assert _view_dict(manager.view("agg")) == _view_dict(fresh.view("agg"))

    def test_delete_keeps_the_cached_plan(self, db):
        """A delete re-keys no cached plan, as an insert does not: insert,
        delete, insert through one planner optimizes once (two plan-cache
        hits), and the delete leaves the catalog version alone."""
        manager = ViewManager(db)
        manager.create_view("v", SUM_VIEW)
        manager.refresh("v")
        planner = MaintenancePlanner(db, manager)
        new_rows = [
            (10_000_000 + i, f"Customer#{i}", i % 25, "BUILDING", 10.0)
            for i in range(5)
        ]
        planner.apply_insert("customer", new_rows)
        version = db.catalog.version
        planner.apply_delete("customer", new_rows)
        assert db.catalog.version == version
        planner.apply_insert("customer", new_rows)
        assert planner.session.plan_cache.hits == 2
        fresh = ViewManager(db)
        fresh.create_view("f", SUM_VIEW)
        fresh.refresh("f")
        assert _view_dict(manager.view("v")) == _view_dict(fresh.view("f"))
