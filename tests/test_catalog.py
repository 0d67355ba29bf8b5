"""Unit tests for schema metadata and statistics (repro.catalog)."""

import numpy as np
import pytest

from repro.catalog.schema import Catalog, ColumnSchema, IndexSchema, TableSchema
from repro.catalog.statistics import ColumnStats, Histogram, TableStats
from repro.errors import CatalogError
from repro.types import DataType, string_pool


def _simple_schema(name="t"):
    return TableSchema(
        name,
        [
            ColumnSchema("a", DataType.INT),
            ColumnSchema("b", DataType.STRING),
        ],
        primary_key=("a",),
    )


class TestTableSchema:
    def test_column_lookup(self):
        schema = _simple_schema()
        assert schema.column("a").data_type is DataType.INT
        assert schema.column_type("b") is DataType.STRING
        assert schema.has_column("a") and not schema.has_column("zz")

    def test_missing_column_raises(self):
        with pytest.raises(CatalogError):
            _simple_schema().column("nope")

    def test_duplicate_column_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema(
                "t",
                [ColumnSchema("a", DataType.INT), ColumnSchema("a", DataType.INT)],
            )

    def test_bad_identifiers_rejected(self):
        with pytest.raises(CatalogError):
            TableSchema("t t", [ColumnSchema("a", DataType.INT)])
        with pytest.raises(CatalogError):
            ColumnSchema("a b", DataType.INT)

    def test_primary_key_must_exist(self):
        with pytest.raises(CatalogError):
            TableSchema(
                "t", [ColumnSchema("a", DataType.INT)], primary_key=("b",)
            )

    def test_row_width(self):
        schema = _simple_schema()
        assert schema.row_width() == 8 + 25
        assert schema.row_width(["a"]) == 8

    def test_indexes(self):
        schema = _simple_schema()
        schema.add_index(IndexSchema("ix", "t", "a"))
        assert schema.index_on("a").name == "ix"
        assert schema.index_on("b") is None
        with pytest.raises(CatalogError):
            schema.add_index(IndexSchema("ix", "t", "a"))
        with pytest.raises(CatalogError):
            schema.add_index(IndexSchema("iy", "t", "zz"))
        with pytest.raises(CatalogError):
            schema.add_index(IndexSchema("iz", "other", "a"))


class TestCatalog:
    def test_add_and_lookup(self):
        catalog = Catalog()
        catalog.add_table(_simple_schema())
        assert catalog.has_table("T")  # case-insensitive
        assert catalog.table("t").name == "t"

    def test_duplicate_rejected(self):
        catalog = Catalog()
        catalog.add_table(_simple_schema())
        with pytest.raises(CatalogError):
            catalog.add_table(_simple_schema())

    def test_drop(self):
        catalog = Catalog()
        catalog.add_table(_simple_schema())
        catalog.drop_table("t")
        assert not catalog.has_table("t")
        with pytest.raises(CatalogError):
            catalog.drop_table("t")

    def test_missing_lookup(self):
        with pytest.raises(CatalogError):
            Catalog().table("ghost")


class TestHistogram:
    def test_uniform_fractions(self):
        values = np.arange(1000, dtype=np.int64)
        hist = Histogram.build(values, buckets=16)
        assert hist.total == 1000
        assert hist.fraction_below(-5, True) == 0.0
        assert hist.fraction_below(2000, True) == 1.0
        mid = hist.fraction_below(500, False)
        assert 0.45 <= mid <= 0.55

    def test_fraction_between(self):
        values = np.arange(100, dtype=np.int64)
        hist = Histogram.build(values, buckets=10)
        frac = hist.fraction_between(25, 75)
        assert 0.4 <= frac <= 0.6

    def test_empty(self):
        hist = Histogram.build(np.empty(0, dtype=np.int64))
        assert hist.total == 0
        assert hist.fraction_below(5, True) == 0.0

    def test_skew(self):
        # 90% zeros, 10% spread: equi-depth should capture the skew.
        values = np.concatenate(
            [np.zeros(900, dtype=np.int64), np.arange(1, 101, dtype=np.int64)]
        )
        hist = Histogram.build(values, buckets=16)
        assert hist.fraction_below(1, False) >= 0.85


class TestColumnStats:
    def test_numeric_collection(self):
        values = np.array([1, 2, 2, 3, 3, 3], dtype=np.int64)
        stats = ColumnStats.collect(values, DataType.INT)
        assert stats.ndv == 3
        assert stats.min_value == 1.0
        assert stats.max_value == 3.0
        assert stats.histogram is not None

    def test_string_collection(self):
        """Collected from the stored codes; MCV keys are the strings."""
        values = string_pool.intern(["a", "b", "a"])
        stats = ColumnStats.collect(values, DataType.STRING)
        assert stats.ndv == 2
        assert stats.min_value is None
        assert stats.mcv == {"a": 2 / 3, "b": 1 / 3}
        assert list(stats.mcv) == ["a", "b"]

    def test_empty(self):
        stats = ColumnStats.collect(np.empty(0, dtype=np.int64), DataType.INT)
        assert stats.ndv == 0

    def test_table_stats_access(self):
        table = TableStats(row_count=10, columns={"a": ColumnStats(ndv=4)})
        assert table.ndv("a") == 4
        assert table.ndv("missing", default=7) == 7
        assert table.column("missing") is None
