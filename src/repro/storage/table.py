"""Column-oriented in-memory tables.

A :class:`Table` stores each column of its :class:`TableSchema` as a numpy
array. All columns must have identical length. STRING columns are stored as
``int64`` codes into ``repro.types.string_pool``: the value accessors
(``column``, ``columns``, ``rows``) and every ingest speak python values,
and ``stored_column`` hands the executor the arrays as stored.

A catalog table is one whose schema the :class:`~repro.storage.Database`
registers. The paper's work tables (§4.3.2, §5.2) — a spool's materialized
CSE result and a materialized view's stored contents — are tables whose
schema is never added to the catalog. Base tables are append-only from the
storage layer's point of view; updates happen through the view-maintenance
machinery which works with delta tables rather than in-place mutation
(mirroring how the paper treats updates, §6.4).
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

import numpy as np

from ..catalog.schema import TableSchema
from ..errors import StorageError
from ..types import DataType, coerce_column, decode_column, string_pool


class Table:
    """Column store for one table's rows.

    Thread-safety contract: every write builds its columns aside and
    installs them with one atomic dict swap, and nothing mutates an
    installed array, so concurrent readers (a spool's consumers, scans of a
    table being appended to) never see a ragged half-written table and
    need no lock.
    """

    def __init__(
        self, schema: TableSchema, columns: Optional[Mapping[str, Any]] = None
    ):
        self.schema = schema
        self._columns: Dict[str, np.ndarray] = {
            col.name: np.empty(0, dtype=col.data_type.numpy_dtype)
            for col in schema.columns
        }
        if columns is not None:
            self.replace_data(columns)

    # -- shape -------------------------------------------------------------

    @property
    def name(self) -> str:
        """The schema name of this table."""
        return self.schema.name

    @property
    def column_names(self) -> List[str]:
        """Column names in schema order."""
        return self.schema.column_names

    @property
    def row_count(self) -> int:
        """Number of stored rows."""
        first = next(iter(self._columns.values()), None)
        return 0 if first is None else len(first)

    def __len__(self) -> int:
        return self.row_count

    # -- access ------------------------------------------------------------

    def stored_column(self, name: str) -> np.ndarray:
        """One column as stored (STRING as pool codes), by name."""
        try:
            return self._columns[name]
        except KeyError:
            raise StorageError(
                f"table {self.schema.name!r} has no column {name!r}"
            ) from None

    def column(self, name: str) -> np.ndarray:
        """One column's values as a numpy array, by name."""
        return decode_column(
            self.stored_column(name), self.schema.column_type(name)
        )

    def columns(self) -> Dict[str, np.ndarray]:
        """Every column's values, by name."""
        return {c.name: self.column(c.name) for c in self.schema.columns}

    def rows(self) -> List[Tuple[Any, ...]]:
        """All rows as tuples of python values in schema column order."""
        cols = [self.column(n).tolist() for n in self.schema.column_names]
        return list(zip(*cols)) if cols else []

    # -- mutation ----------------------------------------------------------

    def append_rows(self, rows: Iterable[Sequence[Any]]) -> int:
        """Append rows (sequences ordered like the schema). Returns the count."""
        rows = list(rows)
        if not rows:
            return 0
        fresh = columns_of(self.schema, rows)
        self._columns = {
            col.name: np.concatenate([
                self._columns[col.name],
                coerce_column(fresh[col.name], col.data_type),
            ])
            for col in self.schema.columns
        }
        return len(rows)

    def replace_data(self, columns: Mapping[str, Any]) -> None:
        """Replace the contents wholesale with python values (validated
        against the schema; STRING values are interned)."""
        self._install(columns, coerce_column)

    def load_rows(self, rows: Sequence[Sequence[Any]]) -> None:
        """Replace the contents with row tuples ordered like the schema."""
        self.replace_data(columns_of(self.schema, rows))

    def load_stored(self, columns: Mapping[str, np.ndarray]) -> None:
        """The spool write: like :meth:`replace_data`, but STRING columns
        arrive as the executor's code arrays and are range-checked against
        the pool instead of interned. A float-widened (NULL-bearing) code
        column is refused, as a NULL string always was."""
        self._install(columns, _check_stored)

    def _install(
        self,
        columns: Mapping[str, Any],
        coerce: Callable[[Any, DataType], np.ndarray],
    ) -> None:
        expected = self.schema.column_names
        if set(columns) != set(expected):
            raise StorageError(
                f"table {self.schema.name!r}: expected columns "
                f"{sorted(expected)}, got {sorted(columns)}"
            )
        installed: Dict[str, np.ndarray] = {}
        length: Optional[int] = None
        for col in self.schema.columns:
            data = coerce(columns[col.name], col.data_type)
            if length is None:
                length = len(data)
            elif len(data) != length:
                raise StorageError(
                    f"table {self.schema.name!r}: column {col.name!r} has "
                    f"{len(data)} rows, expected {length}"
                )
            installed[col.name] = data
        self._columns = installed

    # -- cost-model helpers --------------------------------------------------

    def row_width(self) -> int:
        """Approximate stored row width in bytes."""
        return self.schema.row_width()

    def size_bytes(self) -> int:
        """Approximate total size in bytes (rows x width)."""
        return self.row_count * self.row_width()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Table({self.name!r}, rows={self.row_count})"


def columns_of(
    schema: TableSchema, rows: Sequence[Sequence[Any]]
) -> Dict[str, List[Any]]:
    """Row tuples ordered like ``schema`` as the column mapping every load
    takes; a row of the wrong length is refused."""
    names = schema.column_names
    for row in rows:
        if len(row) != len(names):
            raise StorageError(
                f"row has {len(row)} values, table {schema.name!r} has "
                f"{len(names)} columns"
            )
    return {name: [row[i] for row in rows] for i, name in enumerate(names)}


def _check_stored(values: np.ndarray, data_type: DataType) -> np.ndarray:
    if data_type is not DataType.STRING:
        return coerce_column(values, data_type)
    if not (isinstance(values, np.ndarray) and values.dtype == np.int64):
        raise StorageError(f"expected int64 string codes, got {values!r}")
    if len(values) and not 0 <= values.min() <= values.max() < len(string_pool):
        raise StorageError("string codes outside the string pool")
    return values
