"""Tests for materialized views and joint maintenance (paper §6.4)."""

import numpy as np
import pytest

from repro import OptimizerOptions
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


class TestViewManager:
    def test_create_and_refresh(self, manager):
        view = manager.view("v1")
        assert view.contents is not None
        assert view.contents.row_count > 0
        assert view.column_names == ["c_nationkey", "le", "lq"]

    def test_duplicate_rejected(self, manager):
        with pytest.raises(CatalogError):
            manager.create_view("v1", V1)

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
        from repro import Session

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
        # The delta table is dropped afterwards.
        assert not db.has_table(outcome.table + "_delta")

    @pytest.mark.parametrize("bad", [None, 7])
    def test_insert_of_bad_string_rejected(self, manager, db, bad):
        planner = MaintenancePlanner(db, manager)
        rows = _new_customers(db, 3)
        rows[1] = rows[1][:1] + (bad,) + rows[1][2:]
        before = db.table("customer").row_count
        with pytest.raises(StorageError):
            planner.apply_insert("customer", rows)
        assert db.table("customer").row_count == before

    def test_maintenance_result_equals_recompute(self, manager, db):
        planner = MaintenancePlanner(db, manager)
        planner.apply_insert("customer", _new_customers(db))
        incremental = {
            name: _view_as_dict(manager.view(name)) for name in ("v1", "v2", "v3")
        }
        # Recompute from scratch over the updated base tables.
        fresh = ViewManager(db)
        for name, sql in (("f1", V1), ("f2", V2), ("f3", V3)):
            fresh.create_view(name, sql)
        fresh.refresh_all()
        recomputed = {
            "v1": _view_as_dict(fresh.view("f1")),
            "v2": _view_as_dict(fresh.view("f2")),
            "v3": _view_as_dict(fresh.view("f3")),
        }
        for name in ("v1", "v2", "v3"):
            got = {
                k: tuple(round(x, 4) for x in v)
                for k, v in incremental[name].items()
            }
            want = {
                k: tuple(round(x, 4) for x in v)
                for k, v in recomputed[name].items()
            }
            assert got == want, name

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
