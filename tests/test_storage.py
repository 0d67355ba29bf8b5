"""Unit tests for the storage engine (tables, indexes, work tables, DB)."""

import numpy as np
import pytest

from repro.catalog.schema import ColumnSchema, TableSchema
from repro.errors import CatalogError, StorageError
from repro.storage.database import Database
from repro.storage.index import RangeIndex
from repro.storage.table import Table
from repro.types import DataType, string_pool


def _schema():
    return TableSchema(
        "t",
        [
            ColumnSchema("k", DataType.INT),
            ColumnSchema("v", DataType.FLOAT),
            ColumnSchema("s", DataType.STRING),
        ],
        primary_key=("k",),
    )


def _data(n=5):
    return {
        "k": np.arange(n, dtype=np.int64),
        "v": np.arange(n, dtype=np.float64) * 1.5,
        "s": np.array([f"row{i}" for i in range(n)], dtype=object),
    }


class TestTable:
    def test_create_empty(self):
        table = Table(_schema())
        assert table.row_count == 0

    def test_create_with_data(self):
        table = Table(_schema(), _data())
        assert len(table) == 5
        assert table.column("k").tolist() == [0, 1, 2, 3, 4]

    def test_missing_column_rejected(self):
        data = _data()
        del data["s"]
        with pytest.raises(StorageError):
            Table(_schema(), data)

    def test_ragged_rejected(self):
        data = _data()
        data["v"] = data["v"][:3]
        with pytest.raises(StorageError):
            Table(_schema(), data)

    @pytest.mark.parametrize("bad", [None, 7])
    def test_bad_string_rejected_on_load(self, bad):
        data = _data()
        data["s"][2] = bad
        with pytest.raises(StorageError):
            Table(_schema(), data)
        with pytest.raises(StorageError):
            Table(_schema()).replace_data(data)

    def test_rows(self):
        table = Table(_schema(), _data(2))
        assert table.rows() == [(0, 0.0, "row0"), (1, 1.5, "row1")]

    def test_row_agrees_with_rows_on_plain_python_values(self):
        """Regression: a single row once came back as numpy scalars where
        ``rows()`` returned python values, and a ``np.str_`` /
        ``str``-subclass value came back as that subclass. ``rows()`` is
        now the one row accessor; each row equals its column values."""

        class Tagged(str):
            pass

        table = Table(_schema(), _data(2))
        table.append_rows([(7, 2.5, Tagged("tag")), (8, 3.5, np.str_("np"))])
        rows = table.rows()
        assert rows[2:] == [(7, 2.5, "tag"), (8, 3.5, "np")]
        columns = [table.column(n).tolist() for n in table.column_names]
        for index, row in enumerate(rows):
            assert row == tuple(column[index] for column in columns)
            assert [type(v) for v in row] == [int, float, str]
        assert {type(v) for v in table.column("s").tolist()} == {str}

    def test_string_columns_are_stored_as_pool_codes(self):
        """Value accessors speak ``str``; ``stored_column`` is the codes."""
        table = Table(_schema(), _data(3))
        stored = table.stored_column("s")
        assert stored.dtype == np.int64
        assert string_pool.decode(stored).tolist() == ["row0", "row1", "row2"]
        assert table.column("s").tolist() == ["row0", "row1", "row2"]
        assert table.columns()["s"].tolist() == ["row0", "row1", "row2"]
        assert table.stored_column("k") is table.column("k")
        with pytest.raises(StorageError):
            table.stored_column("zz")

    @pytest.mark.parametrize("bad", [None, 7, np.int64(0)])
    def test_bad_string_rejected_on_append(self, bad):
        table = Table(_schema(), _data(2))
        with pytest.raises(StorageError):
            table.append_rows([(9, 1.0, bad)])
        assert table.row_count == 2

    def test_append_rows(self):
        table = Table(_schema(), _data(2))
        appended = table.append_rows([(10, 1.0, "x"), (11, 2.0, "y")])
        assert appended == 2
        assert table.row_count == 4

    def test_append_bad_arity(self):
        table = Table(_schema(), _data(1))
        with pytest.raises(StorageError):
            table.append_rows([(1, 2.0)])

    def test_size_accounting(self):
        table = Table(_schema(), _data())
        assert table.row_width() == 8 + 8 + 25
        assert table.size_bytes() == 5 * 41


class TestRangeIndex:
    def test_lookup_range(self):
        table = Table(_schema(), _data(100))
        index = RangeIndex("ix", table, "k")
        positions = index.lookup_range(10, 19)
        assert sorted(table.column("k")[positions].tolist()) == list(range(10, 20))

    def test_exclusive_bounds(self):
        table = Table(_schema(), _data(10))
        index = RangeIndex("ix", table, "k")
        got = index.lookup_range(2, 5, low_inclusive=False, high_inclusive=False)
        assert sorted(table.column("k")[got].tolist()) == [3, 4]

    def test_open_ranges(self):
        table = Table(_schema(), _data(10))
        index = RangeIndex("ix", table, "k")
        assert len(index.lookup_range(None, None)) == 10
        assert len(index.lookup_range(low=7)) == 3
        assert len(index.lookup_range(high=2)) == 3

    def test_lookup_equal(self):
        table = Table(_schema(), _data(10))
        index = RangeIndex("ix", table, "k")
        assert table.column("k")[index.lookup_equal(4)].tolist() == [4]

    def test_empty_result(self):
        table = Table(_schema(), _data(10))
        index = RangeIndex("ix", table, "k")
        assert len(index.lookup_range(100, 200)) == 0
        assert len(index.lookup_range(5, 2)) == 0

    def test_string_column_rejected(self):
        table = Table(_schema(), _data(3))
        with pytest.raises(StorageError):
            RangeIndex("bad", table, "s")

    def test_refresh_after_append(self):
        table = Table(_schema(), _data(3))
        index = RangeIndex("ix", table, "k")
        table.append_rows([(100, 0.0, "z")])
        index.refresh()
        assert len(index.lookup_equal(100)) == 1


def _work_schema(*columns):
    return TableSchema("w", [ColumnSchema(n, t) for n, t in columns])


def _catalog_and_spool(*columns):
    """One schema as a catalog table (registered by a database) and as a
    spool table (a :class:`Table` never added to the catalog, as the spool
    write builds it)."""
    schema = _work_schema(*columns)
    return Database().create_table(schema), Table(schema)


class TestWorkTable:
    """The paper's work tables (§4.3.2) — spool results and stored view
    contents — are tables outside the catalog: every case runs the same
    accessor contract on a catalog table and on a spool table."""

    def test_load_and_read(self):
        for table in _catalog_and_spool(("a", DataType.INT), ("b", DataType.FLOAT)):
            table.replace_data({"a": np.array([1, 2]), "b": np.array([0.5, 1.5])})
            assert table.row_count == 2
            assert table.column("a").tolist() == [1, 2]
            assert table.schema.column_type("b") is DataType.FLOAT
            assert table.rows() == [(1, 0.5), (2, 1.5)]
            assert table.size_bytes() == 2 * 16

    def test_mismatched_load_rejected(self):
        for table in _catalog_and_spool(("a", DataType.INT)):
            with pytest.raises(StorageError):
                table.replace_data({"b": np.array([1])})
            with pytest.raises(StorageError):
                table.load_stored({"b": np.array([1])})
            with pytest.raises(StorageError):
                table.load_rows([(1, 2)])
            assert table.row_count == 0

    def test_ragged_load_rejected(self):
        for table in _catalog_and_spool(("a", DataType.INT), ("b", DataType.INT)):
            ragged = {"a": np.array([1]), "b": np.array([1, 2])}
            with pytest.raises(StorageError):
                table.replace_data(ragged)
            with pytest.raises(StorageError):
                table.load_stored(ragged)
            with pytest.raises(StorageError):
                table.load_rows([(1, 2), (3,)])
            with pytest.raises(StorageError):
                table.append_rows([(1, 2), (3,)])
            assert table.row_count == 0

    def test_duplicate_columns_rejected(self):
        duplicated = (("a", DataType.INT), ("a", DataType.INT))
        with pytest.raises(CatalogError):
            Database().create_table(_work_schema(*duplicated))
        with pytest.raises(CatalogError):
            Table(_work_schema(*duplicated))

    def test_missing_column_read(self):
        for table in _catalog_and_spool(("a", DataType.INT)):
            with pytest.raises(StorageError):
                table.column("zz")
            with pytest.raises(StorageError):
                table.stored_column("zz")

    def test_string_values_in_codes_stored(self):
        for table in _catalog_and_spool(("k", DataType.INT), ("s", DataType.STRING)):
            table.replace_data({"k": np.array([1, 2]), "s": ["x", "y"]})
            assert table.stored_column("s").dtype == np.int64
            assert table.column("s").tolist() == ["x", "y"]
            assert table.rows() == [(1, "x"), (2, "y")]
            table.load_rows([(3, "y"), (4, "z"), (5, "y")])
            assert table.rows() == [(3, "y"), (4, "z"), (5, "y")]
            for bad in (7, None):
                with pytest.raises(StorageError):
                    table.replace_data({"k": np.array([1]), "s": [bad]})
                with pytest.raises(StorageError):
                    table.load_rows([(1, bad)])
            assert table.row_count == 3

    def test_spool_write_checks_codes_against_the_pool(self):
        """``load_stored`` takes the executor's code arrays as they are,
        but only int64 codes that the pool can decode."""
        for table in _catalog_and_spool(("s", DataType.STRING)):
            codes = string_pool.intern(["p", "q", "p"])
            table.load_stored({"s": codes})
            assert table.stored_column("s") is codes
            assert table.column("s").tolist() == ["p", "q", "p"]
            table.load_stored({"s": np.empty(0, dtype=np.int64)})
            assert table.row_count == 0
            for bad in (
                np.array([len(string_pool)], dtype=np.int64),  # past the pool
                np.array([0, -1], dtype=np.int64),  # a never-stored literal
                np.array([0.0, np.nan]),  # float-widened: a NULL string
                np.array(["p"], dtype=object),  # values, not codes
                [0, 1],
            ):
                with pytest.raises(StorageError):
                    table.load_stored({"s": bad})
            assert table.row_count == 0


class TestDatabase:
    def test_create_and_query(self):
        db = Database()
        db.create_table(_schema(), _data())
        assert db.table("t").row_count == 5
        assert db.has_table("T")

    def test_duplicate_table_rejected(self):
        db = Database()
        db.create_table(_schema())
        with pytest.raises(CatalogError):
            db.create_table(_schema())

    def test_rejected_data_registers_no_table(self):
        db = Database()
        data = dict(_data(), k=["notanint"] * 5)
        with pytest.raises(StorageError, match="expected int, got 'notanint'"):
            db.create_table(_schema(), data)
        assert not db.has_table("t")
        assert db.catalog.table_names() == []
        assert db.catalog.version == 0
        db.create_table(_schema(), _data())  # the name is still free
        assert db.table("t").row_count == 5

    def test_insert_refreshes_indexes_and_stats(self):
        db = Database()
        db.create_table(_schema(), _data())
        db.create_index("ix_k", "t", "k")
        db.analyze()
        assert db.statistics("t").row_count == 5
        version = db.catalog.version
        db.insert("t", [(50, 1.0, "new")])
        # Refreshed from the appended row, not dropped; no re-key.
        stats = db.statistics("t")
        assert db.has_statistics("t") and db.catalog.version == version
        assert stats.row_count == 6
        assert (stats.column("k").ndv, stats.column("k").max_value) == (6, 50.0)
        assert len(db.index("ix_k").lookup_equal(50)) == 1

    def test_index_for(self):
        db = Database()
        db.create_table(_schema(), _data())
        db.create_index("ix_k", "t", "k")
        assert db.index_for("t", "k") is not None
        assert db.index_for("t", "v") is None

    def test_drop_table_cleans_up(self):
        db = Database()
        db.create_table(_schema(), _data())
        db.create_index("ix_k", "t", "k")
        db.drop_table("t")
        assert not db.has_table("t")
        with pytest.raises(CatalogError):
            db.index("ix_k")

    def test_analyze_collects_column_stats(self):
        db = Database()
        db.create_table(_schema(), _data(50))
        db.analyze()
        stats = db.statistics("t")
        assert stats.column("k").ndv == 50
        assert stats.column("k").min_value == 0.0

    def test_statistics_missing_table(self):
        with pytest.raises(CatalogError):
            Database().statistics("ghost")

    def test_load_replaces(self):
        db = Database()
        db.create_table(_schema(), _data(5))
        db.load("t", _data(2))
        assert db.table("t").row_count == 2
