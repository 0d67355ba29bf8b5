"""Tests for materialized views and joint maintenance (paper §6.4)."""

import numpy as np
import pytest

from repro import OptimizerOptions, Session
from repro.catalog.tpch import build_tpch_database
from repro.errors import CatalogError, StorageError
from repro.views.maintenance import MaintenancePlanner
from repro.views.materialized import ViewManager

V1 = (
    "select c_nationkey, sum(l_extendedprice) as le, sum(l_quantity) as lq "
    "from customer, orders, lineitem "
    "where c_custkey = o_custkey and o_orderkey = l_orderkey "
    "  and o_orderdate < '1996-07-01' and c_nationkey > 0 and c_nationkey < 20 "
    "group by c_nationkey"
)

V2 = (
    "select c_nationkey, sum(l_extendedprice) as le "
    "from customer, orders, lineitem "
    "where c_custkey = o_custkey and o_orderkey = l_orderkey "
    "  and o_orderdate < '1996-07-01' and c_nationkey > 5 and c_nationkey < 25 "
    "group by c_nationkey"
)

V3 = (
    "select n_regionkey, sum(l_extendedprice) as le "
    "from customer, orders, lineitem, nation "
    "where c_custkey = o_custkey and o_orderkey = l_orderkey "
    "  and c_nationkey = n_nationkey and o_orderdate < '1996-07-01' "
    "group by n_regionkey"
)


@pytest.fixture()
def db():
    return build_tpch_database(scale_factor=0.001)


@pytest.fixture()
def manager(db):
    manager = ViewManager(db)
    manager.create_view("v1", V1)
    manager.create_view("v2", V2)
    manager.create_view("v3", V3)
    manager.refresh_all()
    return manager


def _new_customers(db, count=30, start_key=10_000_000):
    rng = np.random.default_rng(42)
    rows = []
    for i in range(count):
        rows.append(
            (
                start_key + i,
                f"Customer#{start_key + i}",
                int(rng.integers(0, 25)),
                ["BUILDING", "MACHINERY"][i % 2],
                float(np.round(rng.uniform(0, 1000), 2)),
            )
        )
    return rows


def _view_as_dict(view):
    table = view.contents
    rows = list(zip(*[table.column(n).tolist() for n in table.column_names]))
    key_count = sum(
        1 for o in view.query.block.output if not o.expr.contains_aggregate()
    )
    return {tuple(r[:key_count]): r[key_count:] for r in rows}


def _rounded(view):
    return {
        key: tuple(round(x, 4) for x in values)
        for key, values in _view_as_dict(view).items()
    }


def _assert_views_equal_recompute(db, manager):
    fresh = ViewManager(db)
    for name, sql in (("v1", V1), ("v2", V2), ("v3", V3)):
        fresh.create_view(name, sql)
    fresh.refresh_all()
    for name in ("v1", "v2", "v3"):
        assert _rounded(manager.view(name)) == _rounded(fresh.view(name)), name


class TestViewManager:
    def test_create_and_refresh(self, manager):
        view = manager.view("v1")
        assert view.contents is not None
        assert view.contents.row_count > 0
        assert view.column_names == ["c_nationkey", "le", "lq"]

    def test_duplicate_rejected(self, manager):
        with pytest.raises(CatalogError):
            manager.create_view("v1", V1)

    def test_name_must_make_a_table_schema(self, manager):
        """A view's contents are a table outside the catalog, so a name no
        table could have is refused when the view is defined, not at its
        first refresh."""
        with pytest.raises(CatalogError, match="invalid table name"):
            manager.create_view("my-view", V1)
        assert len(manager.views()) == 3
        assert manager.view("v1").contents.column_names == ["c_nationkey", "le", "lq"]

    def test_affected_by(self, manager):
        assert len(manager.affected_by("customer")) == 3
        assert len(manager.affected_by("nation")) == 1
        assert manager.affected_by("part") == []

    def test_drop(self, manager):
        manager.drop_view("v3")
        assert len(manager.views()) == 2
        with pytest.raises(CatalogError):
            manager.view("v3")

    def test_refresh_matches_direct_query(self, manager, db):
        view = manager.view("v1")
        outcome = Session(db).execute(V1)
        direct = sorted(outcome.execution.results[0].rows, key=repr)
        stored = sorted(
            zip(*[view.contents.column(n).tolist() for n in view.column_names]),
            key=repr,
        )
        assert [tuple(r) for r in direct] == [tuple(r) for r in stored]


class TestMaintenance:
    def test_insert_maintains_all_views(self, manager, db):
        planner = MaintenancePlanner(db, manager)
        rows = _new_customers(db)
        outcome = planner.apply_insert("customer", rows)
        assert sorted(outcome.affected_views) == ["v1", "v2", "v3"]
        assert outcome.delta_rows == len(rows)
        # The delta table stays: one stable catalog table per written base.
        assert db.has_table("__delta_customer")

    @pytest.mark.parametrize("bad", [None, 7])
    def test_insert_of_bad_string_rejected(self, manager, db, bad):
        planner = MaintenancePlanner(db, manager)
        rows = _new_customers(db, 3)
        rows[1] = rows[1][:1] + (bad,) + rows[1][2:]
        before = db.table("customer").row_count
        with pytest.raises(StorageError):
            planner.apply_insert("customer", rows)
        assert db.table("customer").row_count == before

    def test_rejected_first_write_leaves_the_catalog_alone(self, manager, db):
        """A write rejected by row validation creates no delta table and
        bumps no version, so no cached plan or statement memo is re-keyed."""
        planner = MaintenancePlanner(db, manager)
        version = db.catalog.version
        names = db.catalog.table_names()
        with pytest.raises(StorageError, match="expected int, got 'notanint'"):
            planner.apply_insert(
                "customer", [(1, "x", "notanint", "BUILDING", 1.0)]
            )
        assert not db.has_table("__delta_customer")
        assert db.catalog.table_names() == names
        assert db.catalog.version == version

    def test_maintenance_result_equals_recompute(self, manager, db):
        planner = MaintenancePlanner(db, manager)
        planner.apply_insert("customer", _new_customers(db))
        _assert_views_equal_recompute(db, manager)

    def test_maintenance_batch_shares_cse(self, manager, db):
        """The paper's §6.4 claim: maintenance expressions share a covering
        subexpression over the delta table."""
        planner = MaintenancePlanner(db, manager)
        outcome = planner.apply_insert("customer", _new_customers(db, 50))
        stats = outcome.optimization.stats
        assert stats.used_cses, "maintenance batch should share a CSE"
        # The shared expression reads the delta, not the base table:
        spool_id, body = outcome.optimization.bundle.root_spools[0]
        scans = [
            n for n in body.walk()
            if hasattr(n, "table_ref") and n.table_ref.is_delta
        ]
        assert scans

    def test_maintenance_cheaper_with_cse(self, db):
        def build():
            manager = ViewManager(db)
            manager.create_view("v1", V1)
            manager.create_view("v2", V2)
            manager.create_view("v3", V3)
            manager.refresh_all()
            return manager

        rows = _new_customers(db, 40, start_key=20_000_000)
        with_cse = MaintenancePlanner(
            db, build(), OptimizerOptions()
        ).apply_insert("customer", rows)
        # Fresh database state for a fair comparison.
        db2 = build_tpch_database(scale_factor=0.001)
        manager2 = ViewManager(db2)
        manager2.create_view("v1", V1)
        manager2.create_view("v2", V2)
        manager2.create_view("v3", V3)
        manager2.refresh_all()
        without = MaintenancePlanner(
            db2, manager2, OptimizerOptions(enable_cse=False)
        ).apply_insert("customer", rows)
        assert with_cse.measured_cost < without.measured_cost

    def test_delta_signature_isolated(self, manager, db):
        """Delta expressions never share a CSE with base-table expressions:
        their signatures use delta(customer)."""
        planner = MaintenancePlanner(db, manager)
        batch, _ = planner.build_maintenance_batch("customer", "customer")
        for query in batch.queries:
            deltas = [t for t in query.block.tables if t.is_delta]
            assert len(deltas) == 1
            assert deltas[0].signature_name == "delta(customer)"

    def test_no_affected_views_raises(self, db):
        manager = ViewManager(db)
        planner = MaintenancePlanner(db, manager)
        with pytest.raises(CatalogError):
            planner.apply_insert("customer", _new_customers(db, 1))

    def test_spj_view_append(self, db):
        manager = ViewManager(db)
        manager.create_view(
            "flat",
            "select c_custkey, c_name from customer where c_nationkey = 3",
        )
        manager.refresh("flat")
        before = manager.view("flat").contents.row_count
        planner = MaintenancePlanner(db, manager)
        rows = _new_customers(db, 25, start_key=30_000_000)
        matching = sum(1 for r in rows if r[2] == 3)
        planner.apply_insert("customer", rows)
        assert manager.view("flat").contents.row_count == before + matching

    def test_float_widened_results_are_stored(self, db):
        """The executor returns MIN/MAX over a DATE column, and SUM over no
        rows, as floats; refresh and maintenance store them in the view's
        column types, equal to a recomputation."""
        views = {
            "last_order": "select o_custkey, max(o_orderdate) as last_date "
                          "from orders group by o_custkey",
            "no_sum": "select sum(o_custkey) as total from orders "
                      "where o_custkey < 0",
        }
        manager = ViewManager(db)
        for name, sql in views.items():
            manager.create_view(name, sql)
        manager.refresh_all()
        assert manager.view("no_sum").contents.rows() == [(0,)]
        MaintenancePlanner(db, manager).apply_insert("orders", [
            (90_000_001, 1, "O", 10.0, "1999-01-01", "1-URGENT"),
            (90_000_002, 2, "F", 20.0, "1990-01-01", "2-HIGH"),
            (90_000_003, 99_999, "O", 30.0, "1995-06-30", "3-MEDIUM"),
        ])
        fresh = ViewManager(db)
        for name, sql in views.items():
            fresh.create_view(name, sql)
        fresh.refresh_all()
        for name in views:
            stored = manager.view(name).contents
            assert sorted(stored.rows()) == sorted(fresh.view(name).contents.rows())
            assert all(
                stored.stored_column(n).dtype == np.int64
                for n in stored.column_names
            )
        assert (1, 10592) in manager.view("last_order").contents.rows()


class TestMaintenanceThroughSession:
    """§6.4 through the one engine: the maintenance batch is a plan-cache
    entry like any other, and a write invalidates by table, not by DDL."""

    def test_write_invalidates_by_table_only(self, manager, db):
        planner = MaintenancePlanner(db, manager)
        reader = Session(db)
        untouched = (
            "select o_orderstatus, sum(l_quantity) as q from orders, lineitem "
            "where o_orderkey = l_orderkey group by o_orderstatus"
        )
        touched = (
            "select c_mktsegment, sum(o_totalprice) as t from customer, orders "
            "where c_custkey = o_custkey group by c_mktsegment"
        )
        # The first write creates __delta_customer (DDL); warm up after it.
        planner.apply_insert("customer", _new_customers(db, 5))
        reader.execute(untouched)
        reader.execute(touched)
        version = db.catalog.version
        planner.apply_insert(
            "customer", _new_customers(db, 5, start_key=11_000_000)
        )
        assert db.catalog.version == version
        assert reader.execute(untouched).plan_cache_hit
        assert not reader.execute(touched).plan_cache_hit

    def test_maintenance_plan_is_cached(self, manager, db):
        planner = MaintenancePlanner(db, manager)
        cache = planner.session.plan_cache
        previous = planner.apply_insert("customer", _new_customers(db, 5))
        assert cache.hits == 0
        for write in range(1, 4):
            outcome = planner.apply_insert(
                "customer",
                # Existing keys: these customers have orders, so every
                # view's delta is non-empty and of a different size.
                _new_customers(db, 7 * write, start_key=30 * write),
            )
            assert cache.hits == write
            assert outcome.optimization is previous.optimization
            assert outcome.applied_rows["v3"] > 0
            previous = outcome
        _assert_views_equal_recompute(db, manager)

    def test_options_do_not_share_plans(self, manager, db):
        sharing = MaintenancePlanner(db, manager)
        baseline = MaintenancePlanner(
            db, manager, OptimizerOptions(enable_cse=False)
        )
        start = 1  # existing keys, so the deltas join with orders
        for planner in (sharing, baseline, sharing, baseline):
            planner.apply_insert(
                "customer", _new_customers(db, 6, start_key=start)
            )
            start += 10
        # One miss each (their config keys differ), then one hit each.
        for planner in (sharing, baseline):
            assert planner.session.plan_cache.misses == 1
            assert planner.session.plan_cache.hits == 1
        assert sharing.session.plan_cache is not baseline.session.plan_cache
        _assert_views_equal_recompute(db, manager)
