"""The database: catalog + stored tables + indexes + statistics.

This is the substrate every other layer builds on. The optimizer consults
``Database.statistics`` for cardinality estimation; the executor reads table
columns; the CSE machinery never touches storage directly.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Mapping, Optional

from ..catalog.schema import Catalog, IndexSchema, TableSchema
from ..catalog.statistics import ColumnStats, TableStats, is_unique
from ..errors import CatalogError
from .index import RangeIndex
from .table import Table

#: A mutation listener: called with the lower-cased table name that changed,
#: or None for batch-wide changes. Plan caches register one to invalidate.
MutationListener = Callable[[Optional[str]], None]


class Database:
    """An in-memory database instance.

    Mutations (DDL, DML, and ``analyze``) are serialized by an internal
    lock and announced to registered :data:`MutationListener` callbacks;
    DDL and statistics changes additionally bump the catalog's
    :attr:`~repro.catalog.schema.Catalog.version`, which plan-cache keys
    embed so schema changes re-key every entry.
    Reads are lock-free: tables publish column updates with atomic swaps.
    """

    def __init__(self) -> None:
        self.catalog = Catalog()
        self._tables: Dict[str, Table] = {}
        self._indexes: Dict[str, RangeIndex] = {}
        self._stats: Dict[str, TableStats] = {}
        self._mutation_lock = threading.RLock()
        self._listeners: List[MutationListener] = []

    # -- mutation bookkeeping ----------------------------------------------

    def add_mutation_listener(self, listener: MutationListener) -> None:
        """Register a callback fired after every mutation."""
        with self._mutation_lock:
            if listener not in self._listeners:
                self._listeners.append(listener)

    def remove_mutation_listener(self, listener: MutationListener) -> None:
        """Unregister a mutation callback (no-op when absent)."""
        with self._mutation_lock:
            if listener in self._listeners:
                self._listeners.remove(listener)

    def _mutated(self, table_name: Optional[str]) -> None:
        for listener in list(self._listeners):
            listener(table_name.lower() if table_name else None)

    # -- DDL ---------------------------------------------------------------

    def create_table(
        self, schema: TableSchema, data: Optional[Mapping[str, Any]] = None
    ) -> Table:
        """Register a schema and create its (optionally pre-loaded) table.
        ``data`` is validated first: rejected data registers nothing."""
        with self._mutation_lock:
            table = Table(schema, data)
            self.catalog.add_table(schema)
            self._tables[schema.name.lower()] = table
            for index_schema in schema.indexes:
                self._register_index(index_schema, table)
            self._mutated(schema.name)
        return table

    def drop_table(self, name: str) -> None:
        """Drop a table, its indexes, and its statistics."""
        with self._mutation_lock:
            self.catalog.drop_table(name)
            key = name.lower()
            table = self._tables.pop(key)
            for index_name in [
                n for n, ix in self._indexes.items() if ix.table is table
            ]:
                del self._indexes[index_name]
            self._stats.pop(key, None)
            self._mutated(name)

    def create_index(self, name: str, table_name: str, column: str) -> RangeIndex:
        """Create a range index over one numeric/date column."""
        with self._mutation_lock:
            schema = self.catalog.table(table_name)
            index_schema = IndexSchema(
                name=name, table=schema.name, column=column
            )
            schema.add_index(index_schema)
            index = self._register_index(index_schema, self.table(table_name))
            self.catalog.version += 1
            self._mutated(table_name)
        return index

    def _register_index(self, index_schema: IndexSchema, table: Table) -> RangeIndex:
        key = index_schema.name.lower()
        if key in self._indexes:
            raise CatalogError(f"index {index_schema.name!r} already exists")
        index = RangeIndex(index_schema.name, table, index_schema.column)
        self._indexes[key] = index
        return index

    # -- access ------------------------------------------------------------

    def table(self, name: str) -> Table:
        """The stored table, by (case-insensitive) name."""
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist") from None

    def has_table(self, name: str) -> bool:
        """Whether a table of this name exists."""
        return name.lower() in self._tables

    def index(self, name: str) -> RangeIndex:
        """A registered index, by name."""
        try:
            return self._indexes[name.lower()]
        except KeyError:
            raise CatalogError(f"index {name!r} does not exist") from None

    def index_for(self, table_name: str, column: str) -> Optional[RangeIndex]:
        """The range index over ``table.column``, if one exists."""
        for index in self._indexes.values():
            if index.table.name.lower() == table_name.lower() and index.column == column:
                return index
        return None

    # -- DML ---------------------------------------------------------------

    def insert(self, table_name: str, rows: Any) -> int:
        """Append rows; refreshes indexes and invalidates statistics."""
        with self._mutation_lock:
            table = self.table(table_name)
            count = table.append_rows(rows)
            for index in self._indexes.values():
                if index.table is table:
                    index.refresh()
            # Stored statistics are now stale; callers re-run analyze().
            self._stats.pop(table_name.lower(), None)
            self._mutated(table_name)
        return count

    def load(self, table_name: str, columns: Mapping[str, Any]) -> None:
        """Replace a table's contents wholesale."""
        with self._mutation_lock:
            table = self.table(table_name)
            table.replace_data(columns)
            for index in self._indexes.values():
                if index.table is table:
                    index.refresh()
            self._stats.pop(table_name.lower(), None)
            self._mutated(table_name)

    # -- statistics ----------------------------------------------------------

    def analyze(self, table_name: Optional[str] = None, histogram_buckets: int = 32) -> None:
        """Collect statistics for one table or all tables."""
        with self._mutation_lock:
            names = [table_name] if table_name else list(self._tables)
            for name in names:
                table = self.table(name)
                column_stats: Dict[str, ColumnStats] = {}
                for col in table.schema.columns:
                    column_stats[col.name] = ColumnStats.collect(
                        table.stored_column(col.name), col.data_type, histogram_buckets
                    )
                key = table.schema.primary_key
                if key and not is_unique([table.stored_column(c) for c in key]):
                    key = ()
                self._stats[name.lower()] = TableStats(
                    row_count=table.row_count, columns=column_stats, primary_key=key
                )
            # Fresh statistics change plan choice just like DDL does.
            self.catalog.version += 1
            for name in names:
                self._mutated(name)

    def statistics(self, table_name: str) -> TableStats:
        """Collected statistics (bare row count before analyze())."""
        key = table_name.lower()
        if key not in self._stats:
            if key not in self._tables:
                raise CatalogError(f"table {table_name!r} does not exist")
            # Fall back to a bare row count when analyze() has not run.
            return TableStats(row_count=self.table(table_name).row_count)
        return self._stats[key]

    def has_statistics(self, table_name: str) -> bool:
        """Whether analyze() has run for this table."""
        return table_name.lower() in self._stats
