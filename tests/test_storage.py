"""Unit tests for the storage engine (tables, indexes, work tables, DB)."""

import numpy as np
import pytest

from repro.catalog.schema import ColumnSchema, TableSchema
from repro.errors import CatalogError, StorageError
from repro.storage.database import Database
from repro.storage.index import RangeIndex
from repro.storage.table import Table
from repro.storage.worktable import WorkTable
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

    def test_row_access(self):
        table = Table(_schema(), _data())
        assert table.row(2) == (2, 3.0, "row2")
        with pytest.raises(StorageError):
            table.row(99)

    def test_rows(self):
        table = Table(_schema(), _data(2))
        assert table.rows() == [(0, 0.0, "row0"), (1, 1.5, "row1")]

    def test_row_agrees_with_rows_on_plain_python_values(self):
        """Regression: ``row(i)`` returned numpy scalars where ``rows()[i]``
        returned python values, and a ``np.str_`` / ``str``-subclass value
        came back as that subclass."""

        class Tagged(str):
            pass

        table = Table(_schema(), _data(2))
        table.append_rows([(7, 2.5, Tagged("tag")), (8, 3.5, np.str_("np"))])
        rows = table.rows()
        assert rows[2:] == [(7, 2.5, "tag"), (8, 3.5, "np")]
        for index, row in enumerate(rows):
            assert table.row(index) == row
            assert [type(v) for v in table.row(index)] == [int, float, str]
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

    def test_select_mask(self):
        table = Table(_schema(), _data())
        subset = table.select(table.column("k") >= 3)
        assert subset.row_count == 2
        assert subset.column("k").tolist() == [3, 4]

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


class TestWorkTable:
    def test_load_and_read(self):
        wt = WorkTable("w", ["a", "b"], [DataType.INT, DataType.FLOAT])
        wt.load({"a": np.array([1, 2]), "b": np.array([0.5, 1.5])})
        assert wt.row_count == 2
        assert wt.column("a").tolist() == [1, 2]
        assert wt.column_type("b") is DataType.FLOAT

    def test_mismatched_load_rejected(self):
        wt = WorkTable("w", ["a"], [DataType.INT])
        with pytest.raises(StorageError):
            wt.load({"b": np.array([1])})

    def test_ragged_load_rejected(self):
        wt = WorkTable("w", ["a", "b"], [DataType.INT, DataType.INT])
        with pytest.raises(StorageError):
            wt.load({"a": np.array([1]), "b": np.array([1, 2])})

    def test_duplicate_columns_rejected(self):
        with pytest.raises(StorageError):
            WorkTable("w", ["a", "a"], [DataType.INT, DataType.INT])

    def test_missing_column_read(self):
        wt = WorkTable("w", ["a"], [DataType.INT])
        with pytest.raises(StorageError):
            wt.column("zz")

    def test_string_values_in_codes_stored(self):
        wt = WorkTable("w", ["k", "s"], [DataType.INT, DataType.STRING])
        wt.load({"k": np.array([1, 2]), "s": ["x", "y"]})
        assert wt.stored_column("s").dtype == np.int64
        assert wt.column("s").tolist() == ["x", "y"]
        assert wt.rows() == [(1, "x"), (2, "y")]
        wt.load_rows([(3, "y"), (4, "z"), (5, "y")])
        assert wt.rows() == [(3, "y"), (4, "z"), (5, "y")]
        for bad in (7, None):
            with pytest.raises(StorageError):
                wt.load({"k": np.array([1]), "s": [bad]})
        assert wt.row_count == 3

    def test_spool_write_checks_codes_against_the_pool(self):
        """``load_stored`` takes the executor's code arrays as they are,
        but only int64 codes that the pool can decode."""
        wt = WorkTable("w", ["s"], [DataType.STRING])
        codes = string_pool.intern(["p", "q", "p"])
        wt.load_stored({"s": codes})
        assert wt.stored_column("s") is codes
        assert wt.column("s").tolist() == ["p", "q", "p"]
        wt.load_stored({"s": np.empty(0, dtype=np.int64)})
        assert wt.row_count == 0
        for bad in (
            np.array([len(string_pool)], dtype=np.int64),  # past the pool
            np.array([0, -1], dtype=np.int64),  # a never-stored literal
            np.array([0.0, np.nan]),  # float-widened: a NULL string
            np.array(["p"], dtype=object),  # values, not codes
            [0, 1],
        ):
            with pytest.raises(StorageError):
                wt.load_stored({"s": bad})
        assert wt.row_count == 0


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
        assert (db.catalog_version, db.catalog.version) == (0, 0)
        db.create_table(_schema(), _data())  # the name is still free
        assert db.table("t").row_count == 5

    def test_insert_refreshes_indexes_and_stats(self):
        db = Database()
        db.create_table(_schema(), _data())
        db.create_index("ix_k", "t", "k")
        db.analyze()
        assert db.statistics("t").row_count == 5
        db.insert("t", [(50, 1.0, "new")])
        # stats were invalidated: falls back to bare row count
        assert db.statistics("t").row_count == 6
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
