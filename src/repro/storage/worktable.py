"""Work tables: spool targets and stored view contents.

The paper's spool operator materializes a CSE's result into an internal work
table that consumers then read sequentially (§4.3.2, §5.2). A
:class:`WorkTable` is that internal table: a bag of rows with named, typed
columns but no catalog presence. Like a :class:`~repro.storage.table.Table`
it stores STRING columns as ``string_pool`` codes behind value-level
accessors; the executor reads ``stored_column`` and writes spools through
``load_stored``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import StorageError
from ..types import DataType, coerce_column, decode_column, string_pool


class WorkTable:
    """A materialized intermediate result.

    Thread-safety contract (parallel executor): a work table is built and
    loaded by exactly one producer task before being published to the
    shared spool map; :meth:`load` installs the validated columns with a
    single atomic dict swap and nothing mutates the arrays afterwards, so
    any number of concurrent consumers may read columns without locking.
    """

    def __init__(
        self,
        name: str,
        column_names: Sequence[str],
        column_types: Sequence[DataType],
        columns: Optional[Mapping[str, np.ndarray]] = None,
    ) -> None:
        if len(column_names) != len(column_types):
            raise StorageError("column names/types length mismatch")
        if len(set(column_names)) != len(column_names):
            raise StorageError(f"duplicate column names in work table {name!r}")
        self.name = name
        self.column_names: List[str] = list(column_names)
        self.column_types: List[DataType] = list(column_types)
        self._columns: Dict[str, np.ndarray] = {}
        if columns is not None:
            self.load(columns)
        else:
            for col_name, col_type in zip(self.column_names, self.column_types):
                self._columns[col_name] = np.empty(0, dtype=col_type.numpy_dtype)

    def load(self, columns: Mapping[str, Any]) -> None:
        """Replace the work table's columns with the given values
        (validates names/types/lengths; STRING values are interned)."""
        self._install(columns, coerce_column)

    def load_rows(self, rows: Sequence[Sequence[Any]]) -> None:
        """Replace the contents with row tuples ordered like the columns."""
        columns: Dict[str, Any] = {}
        for index, (name, col_type) in enumerate(
            zip(self.column_names, self.column_types)
        ):
            values = [row[index] for row in rows]
            columns[name] = (
                values
                if col_type is DataType.STRING
                else np.array(values, dtype=col_type.numpy_dtype)
            )
        self.load(columns)

    def load_stored(self, columns: Mapping[str, np.ndarray]) -> None:
        """The spool write: like :meth:`load`, but STRING columns arrive as
        the executor's code arrays and are range-checked against the pool
        instead of interned. A float-widened (NULL-bearing) code column is
        refused, as a NULL string always was."""
        self._install(columns, _check_stored)

    def _install(self, columns: Mapping[str, Any], coerce) -> None:
        if set(columns) != set(self.column_names):
            raise StorageError(
                f"work table {self.name!r}: expected columns "
                f"{self.column_names}, got {sorted(columns)}"
            )
        length: Optional[int] = None
        loaded: Dict[str, np.ndarray] = {}
        for col_name, col_type in zip(self.column_names, self.column_types):
            data = coerce(columns[col_name], col_type)
            if length is None:
                length = len(data)
            elif len(data) != length:
                raise StorageError(
                    f"work table {self.name!r}: ragged column {col_name!r}"
                )
            loaded[col_name] = data
        self._columns = loaded

    @property
    def row_count(self) -> int:
        """Number of materialized rows."""
        first = next(iter(self._columns.values()), None)
        return 0 if first is None else len(first)

    def __len__(self) -> int:
        return self.row_count

    def stored_column(self, name: str) -> np.ndarray:
        """One column as stored (STRING as pool codes), by name."""
        try:
            return self._columns[name]
        except KeyError:
            raise StorageError(
                f"work table {self.name!r} has no column {name!r}"
            ) from None

    def column(self, name: str) -> np.ndarray:
        """One column's values, by name."""
        return decode_column(self.stored_column(name), self.column_type(name))

    def column_type(self, name: str) -> DataType:
        """The declared type of one column."""
        try:
            position = self.column_names.index(name)
        except ValueError:
            raise StorageError(
                f"work table {self.name!r} has no column {name!r}"
            ) from None
        return self.column_types[position]

    def columns(self) -> Dict[str, np.ndarray]:
        """Every column's values, by name."""
        return {name: self.column(name) for name in self.column_names}

    def rows(self) -> List[Tuple[Any, ...]]:
        """All rows as tuples of python values in column order."""
        cols = [self.column(name).tolist() for name in self.column_names]
        return list(zip(*cols)) if cols else []

    def row_width(self) -> int:
        """Row width in bytes (sum of column type widths)."""
        return sum(t.byte_width for t in self.column_types)

    def size_bytes(self) -> int:
        """Total size in bytes."""
        return self.row_count * self.row_width()


def _check_stored(values: np.ndarray, data_type: DataType) -> np.ndarray:
    if data_type is not DataType.STRING:
        return coerce_column(values, data_type)
    if not (isinstance(values, np.ndarray) and values.dtype == np.int64):
        raise StorageError(f"expected int64 string codes, got {values!r}")
    if len(values) and not 0 <= values.min() <= values.max() < len(string_pool):
        raise StorageError("string codes outside the string pool")
    return values
