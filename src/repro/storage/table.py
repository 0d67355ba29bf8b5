"""Column-oriented in-memory tables.

A :class:`Table` stores each column as a numpy array. All columns must have
identical length. STRING columns are stored as ``int64`` codes into
``repro.types.string_pool``: the value accessors (``column``, ``columns``,
``row``, ``rows``) and every ingest speak python values, and
``stored_column`` hands the executor the arrays as stored. Tables are
append-only from the storage layer's point of view; updates happen through
the view-maintenance machinery which works with delta tables rather than
in-place mutation (mirroring how the paper treats updates, §6.4).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..catalog.schema import TableSchema
from ..errors import StorageError
from ..types import coerce_column, decode_column


class Table:
    """Column store for one table's rows."""

    def __init__(self, schema: TableSchema, columns: Optional[Mapping[str, Any]] = None):
        self.schema = schema
        self._columns: Dict[str, np.ndarray] = {}
        if columns is None:
            for col in schema.columns:
                self._columns[col.name] = np.empty(0, dtype=col.data_type.numpy_dtype)
        else:
            self._set_columns(columns)

    def _set_columns(self, columns: Mapping[str, Any]) -> None:
        provided = set(columns)
        expected = set(self.schema.column_names)
        if provided != expected:
            raise StorageError(
                f"table {self.schema.name!r}: expected columns {sorted(expected)}, "
                f"got {sorted(provided)}"
            )
        coerced: Dict[str, np.ndarray] = {}
        length: Optional[int] = None
        for col in self.schema.columns:
            data = coerce_column(columns[col.name], col.data_type)
            if length is None:
                length = len(data)
            elif len(data) != length:
                raise StorageError(
                    f"table {self.schema.name!r}: column {col.name!r} has "
                    f"{len(data)} rows, expected {length}"
                )
            coerced[col.name] = data
        self._columns = coerced

    # -- shape -------------------------------------------------------------

    @property
    def name(self) -> str:
        """The schema name of this table."""
        return self.schema.name

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

    def row(self, index: int) -> Tuple[Any, ...]:
        """One row as a tuple of python values, by position."""
        if not 0 <= index < self.row_count:
            raise StorageError(f"row index {index} out of range")
        return self.select(np.array([index])).rows()[0]

    def rows(self) -> List[Tuple[Any, ...]]:
        """All rows as tuples of python values in schema column order."""
        cols = [self.column(n).tolist() for n in self.schema.column_names]
        return list(zip(*cols)) if cols else []

    def select(self, mask_or_indices: np.ndarray) -> "Table":
        """A new table with the rows selected by a boolean mask or index array."""
        subset = {name: col[mask_or_indices] for name, col in self._columns.items()}
        table = Table.__new__(Table)
        table.schema = self.schema
        table._columns = subset
        return table

    # -- mutation ----------------------------------------------------------

    def append_rows(self, rows: Iterable[Sequence[Any]]) -> int:
        """Append rows (sequences ordered like the schema). Returns the count."""
        rows = list(rows)
        if not rows:
            return 0
        names = self.schema.column_names
        for row in rows:
            if len(row) != len(names):
                raise StorageError(
                    f"row has {len(row)} values, table {self.name!r} has "
                    f"{len(names)} columns"
                )
        # Copy-on-write: build the appended columns aside and publish them
        # with one atomic dict swap, so concurrent readers never observe a
        # ragged half-appended table (arrays themselves are immutable here).
        updated = dict(self._columns)
        for position, col in enumerate(self.schema.columns):
            new_values = coerce_column(
                [row[position] for row in rows], col.data_type
            )
            updated[col.name] = np.concatenate(
                [updated[col.name], new_values]
            )
        self._columns = updated
        return len(rows)

    def replace_data(self, columns: Mapping[str, Any]) -> None:
        """Replace the table contents wholesale (used by data loaders)."""
        self._set_columns(columns)

    # -- cost-model helpers --------------------------------------------------

    def row_width(self) -> int:
        """Approximate stored row width in bytes."""
        return self.schema.row_width()

    def size_bytes(self) -> int:
        """Approximate total size in bytes (rows x width)."""
        return self.row_count * self.row_width()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Table({self.name!r}, rows={self.row_count})"
