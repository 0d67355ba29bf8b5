"""Column data types and value handling.

The engine stores data column-wise in numpy arrays. Each logical column type
maps to a numpy dtype and carries coercion and comparison rules. Dates are
stored as integer days since 1970-01-01 so that range predicates on dates are
ordinary integer comparisons (the same trick commercial engines use).

Strings get the same treatment: a STRING value is stored and processed as an
``int64`` code into :data:`string_pool`, so scans, joins, group-bys, spools
and NULL tests over string columns are the integer kernels every other type
uses (a NULL string is NaN in a float-widened code column, exactly like a
NULL integer). A python ``str`` exists only at ingest (``coerce_column``
interns) and at result assembly and the tables' value accessors
(``StringPool.decode``). Equality compares codes; order compares
``StringPool.order().ranks[codes]``.

The pool is process-wide rather than per ``Database``, deliberately: the
evaluator's contract is ``(expr, frame)`` with no database handle, nothing
pickles a table, and a per-database pool would thread a parameter through
every evaluation site for no behaviour anyone can observe. It is append-only
and never shrinks — a dropped table's strings stay pooled for the life of the
process — so a code, once handed out, never changes meaning. Growth and the
lazy rebuilds of the decode and rank tables take one lock; lookups are
lock-free reads of structures that are only appended to or swapped whole.
"""

from __future__ import annotations

import bisect
import datetime as _dt
import enum
import threading
from typing import Any, Dict, List, NamedTuple

import numpy as np

from .errors import StorageError

_EPOCH = _dt.date(1970, 1, 1)


class DataType(enum.Enum):
    """Logical column types supported by the engine."""

    INT = "int"
    FLOAT = "float"
    STRING = "string"
    DATE = "date"
    BOOL = "bool"

    @property
    def numpy_dtype(self) -> np.dtype:
        """The numpy dtype used to store a column of this type."""
        return np.dtype(_NUMPY_DTYPES[self])

    @property
    def byte_width(self) -> int:
        """Approximate storage width in bytes, used by the cost model."""
        return _BYTE_WIDTHS[self]

    @property
    def is_numeric(self) -> bool:
        """Whether values order/compare numerically (INT/FLOAT/DATE)."""
        return self in (DataType.INT, DataType.FLOAT, DataType.DATE)


_NUMPY_DTYPES = {
    DataType.INT: np.int64,
    DataType.FLOAT: np.float64,
    DataType.STRING: np.int64,  # codes into string_pool
    DataType.DATE: np.int64,
    DataType.BOOL: np.bool_,
}

# STRING width is a nominal average; TPC-H varchar columns average ~25 bytes.
_BYTE_WIDTHS = {
    DataType.INT: 8,
    DataType.FLOAT: 8,
    DataType.STRING: 25,
    DataType.DATE: 8,
    DataType.BOOL: 1,
}


def date_to_int(value: "_dt.date | str | int") -> int:
    """Convert a date (``datetime.date``, ISO string, or day number) to days
    since the epoch."""
    if isinstance(value, bool):
        raise StorageError(f"cannot treat bool {value!r} as a date")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        value = _dt.date.fromisoformat(value)
    if isinstance(value, _dt.date):
        return (value - _EPOCH).days
    raise StorageError(f"cannot convert {value!r} to a date")


def int_to_date(days: int) -> _dt.date:
    """Inverse of :func:`date_to_int`."""
    return _EPOCH + _dt.timedelta(days=int(days))


def coerce_value(value: Any, data_type: DataType) -> Any:
    """Coerce a python value to the storage representation of ``data_type``.

    Raises :class:`StorageError` when the value cannot represent the type.
    """
    if value is None:
        raise StorageError("NULL values are not supported by this engine")
    if data_type is DataType.INT:
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise StorageError(f"expected int, got {value!r}")
        return int(value)
    if data_type is DataType.FLOAT:
        if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)
        ):
            raise StorageError(f"expected float, got {value!r}")
        return float(value)
    if data_type is DataType.STRING:
        if not isinstance(value, str):
            raise StorageError(f"expected str, got {value!r}")
        # Subclasses (np.str_ included) are stored as exact ``str``.
        return str.__str__(value)
    if data_type is DataType.DATE:
        return date_to_int(value)
    if data_type is DataType.BOOL:
        if not isinstance(value, (bool, np.bool_)):
            raise StorageError(f"expected bool, got {value!r}")
        return bool(value)
    raise StorageError(f"unknown data type {data_type!r}")


def _gather(table: np.ndarray, codes: np.ndarray, null: Any) -> np.ndarray:
    """``table[codes]``; NaN (NULL) entries of a float-widened code column
    become ``null``."""
    if codes.dtype.kind != "f":
        return table[codes]
    live = ~np.isnan(codes)
    out = np.full(len(codes), null, dtype=table.dtype)
    out[live] = table[codes[live].astype(np.int64)]
    return out


class StringOrder(NamedTuple):
    """One snapshot of the pool's sort order."""

    #: code -> sort rank (``ranks[a] < ranks[b]`` iff string a < string b),
    #: as float64 so that a NULL code's rank can be NaN.
    ranks: np.ndarray
    #: the pooled strings, sorted; ``strings[ranks[c]]`` is code c's string.
    strings: List[str]

    def ranks_of(self, codes: np.ndarray) -> np.ndarray:
        """Sort ranks of a code column; NaN (NULL) stays NaN."""
        return _gather(self.ranks, codes, np.nan)

    def rank_of(self, value: str) -> float:
        """Where ``value`` sorts among this snapshot's strings: its own rank
        when pooled, else halfway between its neighbours' ranks."""
        position = bisect.bisect_left(self.strings, value)
        if position < len(self.strings) and self.strings[position] == value:
            return float(position)
        return position - 0.5


class StringPool:
    """Append-only ``str`` <-> ``int64`` code dictionary (module docstring)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._codes: Dict[str, int] = {}
        self._strings: List[str] = []
        self._table = np.empty(0, dtype=object)  # code -> str, for gathers
        self._order = StringOrder(np.empty(0, dtype=np.float64), [])

    def __len__(self) -> int:
        return len(self._strings)

    def intern(self, values: Any) -> np.ndarray:
        """Codes for an iterable of strings, adding the ones not yet pooled.

        Pooled values cost one dict lookup each; only a batch holding
        something new (or unhashable) is walked under the lock, where
        anything not an exact ``str`` goes through :func:`coerce_value` — so
        a non-``str`` or None still raises :class:`StorageError`."""
        values = values.tolist() if isinstance(values, np.ndarray) else list(values)
        codes = self._codes
        try:
            return self._lookup(values)
        except (KeyError, TypeError):
            pass
        with self._lock:
            for value in values:
                if type(value) is not str:
                    value = coerce_value(value, DataType.STRING)
                if value not in codes:
                    # List first: a code visible in the dict is decodable.
                    self._strings.append(value)
                    codes[value] = len(self._strings) - 1
        return self._lookup(values)

    def _lookup(self, values: List[Any]) -> np.ndarray:
        return np.fromiter(
            map(self._codes.__getitem__, values), dtype=np.int64, count=len(values)
        )

    def code(self, value: str) -> int:
        """The code of ``value``, or -1 when it was never stored. Lookup
        only: a read query must never grow the pool."""
        return self._codes.get(value, -1)

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """The strings behind a code column, as one object gather; NaN
        (NULL) entries of a float-widened column decode to None."""
        table = self._table
        if len(table) < len(self._strings):
            with self._lock:
                table = self._table
                fresh = self._strings[len(table):]
                if fresh:
                    grown = np.empty(len(table) + len(fresh), dtype=object)
                    grown[: len(table)] = table
                    grown[len(table):] = fresh
                    table = self._table = grown
        return _gather(table, codes, None)

    def order(self) -> StringOrder:
        """The current sort order, cached by pool length: rebuilt (under the
        lock) only when the pool has grown since the last call, and covering
        every code handed out before this call."""
        order = self._order
        if len(order.strings) < len(self._strings):
            with self._lock:
                order = self._order
                if len(order.strings) < len(self._strings):
                    strings = list(self._strings)
                    by_rank = sorted(range(len(strings)), key=strings.__getitem__)
                    ranks = np.empty(len(strings), dtype=np.float64)
                    ranks[by_rank] = np.arange(len(strings))
                    order = self._order = StringOrder(
                        ranks, [strings[c] for c in by_rank]
                    )
        return order


#: The process-wide pool every STRING column's codes index (module docstring).
string_pool = StringPool()


def coerce_column(values: Any, data_type: DataType) -> np.ndarray:
    """Coerce an iterable of values to a numpy column of ``data_type``.

    STRING values are interned (checked once per distinct value); for the
    other types an array already of the storage dtype is returned as is."""
    if data_type is DataType.STRING:
        return string_pool.intern(values)
    if isinstance(values, np.ndarray) and values.dtype == data_type.numpy_dtype:
        return values
    coerced = [coerce_value(v, data_type) for v in values]
    return np.array(coerced, dtype=data_type.numpy_dtype)


def decode_column(values: np.ndarray, data_type: DataType) -> np.ndarray:
    """A stored column as values: STRING codes become ``str`` objects."""
    return string_pool.decode(values) if data_type is DataType.STRING else values


def literal_type(value: Any) -> DataType:
    """Infer the :class:`DataType` of a python literal."""
    if isinstance(value, bool):
        return DataType.BOOL
    if isinstance(value, (int, np.integer)):
        return DataType.INT
    if isinstance(value, (float, np.floating)):
        return DataType.FLOAT
    if isinstance(value, _dt.date):
        return DataType.DATE
    if isinstance(value, str):
        return DataType.STRING
    raise StorageError(f"cannot infer a column type for literal {value!r}")


def common_numeric_type(left: DataType, right: DataType) -> DataType:
    """The result type of an arithmetic operation between two numeric types."""
    if not (left.is_numeric and right.is_numeric):
        raise StorageError(f"non-numeric operands: {left}, {right}")
    if DataType.FLOAT in (left, right):
        return DataType.FLOAT
    if left is DataType.DATE and right is DataType.DATE:
        return DataType.INT
    if DataType.DATE in (left, right):
        return DataType.DATE
    return DataType.INT


def comparable(left: DataType, right: DataType) -> bool:
    """Whether values of the two types may be compared with <,=,> etc."""
    if left == right:
        return True
    numeric = (DataType.INT, DataType.FLOAT)
    if left in numeric and right in numeric:
        return True
    # Dates compare against ints (day numbers) and date literals.
    datelike = (DataType.DATE, DataType.INT)
    if left in datelike and right in datelike:
        return True
    return False
