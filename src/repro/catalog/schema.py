"""Schema metadata: columns, tables, and the catalog that holds them.

The catalog is deliberately independent of the storage layer: the optimizer
and the SQL binder consult the catalog only, so they can be unit-tested
without materializing any data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import CatalogError
from ..types import DataType


@dataclass(frozen=True)
class ColumnSchema:
    """A single column: name, type, and an optional NDV hint.

    ``ndv_hint`` lets schema authors declare the expected number of distinct
    values before statistics are collected; collected stats override it.
    """

    name: str
    data_type: DataType
    ndv_hint: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise CatalogError(f"invalid column name {self.name!r}")


@dataclass
class IndexSchema:
    """A secondary index over one column of a table.

    The engine supports single-column range indexes, enough to reproduce the
    paper's Example 7 (a cheap index lookup on ``o_orderdate`` making one
    consumer too cheap to benefit from a CSE).
    """

    name: str
    table: str
    column: str
    unique: bool = False


@dataclass
class TableSchema:
    """A table: ordered columns plus key/index metadata."""

    name: str
    columns: List[ColumnSchema]
    primary_key: Tuple[str, ...] = ()
    indexes: List[IndexSchema] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise CatalogError(f"invalid table name {self.name!r}")
        seen = set()
        for column in self.columns:
            if column.name in seen:
                raise CatalogError(
                    f"duplicate column {column.name!r} in table {self.name!r}"
                )
            seen.add(column.name)
        for key_col in self.primary_key:
            if key_col not in seen:
                raise CatalogError(
                    f"primary key column {key_col!r} not in table {self.name!r}"
                )

    @property
    def column_names(self) -> List[str]:
        """Column names in declaration order."""
        return [c.name for c in self.columns]

    def has_column(self, name: str) -> bool:
        """Whether the table declares this column."""
        return any(c.name == name for c in self.columns)

    def column(self, name: str) -> ColumnSchema:
        """One column's schema, by name."""
        for col in self.columns:
            if col.name == name:
                return col
        raise CatalogError(f"table {self.name!r} has no column {name!r}")

    def column_type(self, name: str) -> DataType:
        """One column's data type, by name."""
        return self.column(name).data_type

    def row_width(self, columns: Optional[Iterable[str]] = None) -> int:
        """Approximate row width in bytes over the given (or all) columns."""
        cols = self.columns if columns is None else map(self.column, columns)
        return sum(c.data_type.byte_width for c in cols)

    def index_on(self, column: str) -> Optional[IndexSchema]:
        """The index over ``column``, if declared."""
        for index in self.indexes:
            if index.column == column:
                return index
        return None

    def add_index(self, index: IndexSchema) -> None:
        """Declare an index (validated against this table)."""
        if index.table != self.name:
            raise CatalogError(
                f"index {index.name!r} targets {index.table!r}, not {self.name!r}"
            )
        if not self.has_column(index.column):
            raise CatalogError(
                f"index {index.name!r} references missing column {index.column!r}"
            )
        if any(existing.name == index.name for existing in self.indexes):
            raise CatalogError(f"duplicate index name {index.name!r}")
        self.indexes.append(index)


class Catalog:
    """The collection of table schemas known to a database."""

    def __init__(self) -> None:
        self._tables: Dict[str, TableSchema] = {}
        #: bumped once by add_table and drop_table, and by the database's
        #: create_index and analyze: the binder's memo and every plan-cache
        #: key embed it, so DDL and fresh statistics re-key both.
        self.version = 0

    def add_table(self, schema: TableSchema) -> None:
        """Register a table schema (names are case-insensitive)."""
        key = schema.name.lower()
        if key in self._tables:
            raise CatalogError(f"table {schema.name!r} already exists")
        self._tables[key] = schema
        self.version += 1

    def drop_table(self, name: str) -> None:
        """Remove a table schema."""
        key = name.lower()
        if key not in self._tables:
            raise CatalogError(f"table {name!r} does not exist")
        del self._tables[key]
        self.version += 1

    def has_table(self, name: str) -> bool:
        """Whether a table of this name is registered."""
        return name.lower() in self._tables

    def table(self, name: str) -> TableSchema:
        """One table's schema, by name."""
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise CatalogError(f"table {name!r} does not exist") from None

    def tables(self) -> Sequence[TableSchema]:
        """All table schemas."""
        return list(self._tables.values())

    def table_names(self) -> List[str]:
        """All table names."""
        return [t.name for t in self._tables.values()]
