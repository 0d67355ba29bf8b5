"""Column data types and value handling.

The engine stores data column-wise in numpy arrays. Each logical column type
maps to a numpy dtype and carries coercion and comparison rules. Dates are
stored as integer days since 1970-01-01 so that range predicates on dates are
ordinary integer comparisons (the same trick commercial engines use).
"""

from __future__ import annotations

import datetime as _dt
import enum
from typing import Any

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
    DataType.STRING: object,
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
        return value
    if data_type is DataType.DATE:
        return date_to_int(value)
    if data_type is DataType.BOOL:
        if not isinstance(value, (bool, np.bool_)):
            raise StorageError(f"expected bool, got {value!r}")
        return bool(value)
    raise StorageError(f"unknown data type {data_type!r}")


def coerce_column(values: Any, data_type: DataType) -> np.ndarray:
    """Coerce an iterable of values to a numpy column of ``data_type``.

    An array already of the storage dtype is returned as is. For STRING
    (object arrays) that still requires :func:`coerce_value`'s check —
    every entry a ``str`` — which is made once per distinct element type
    instead of once per value; an array that fails it takes the per-value
    path below and raises there for its first offending entry."""
    if isinstance(values, np.ndarray) and values.dtype == data_type.numpy_dtype:
        if data_type is not DataType.STRING or all(
            issubclass(t, str) for t in set(map(type, values.tolist()))
        ):
            return values
    coerced = [coerce_value(v, data_type) for v in values]
    return np.array(coerced, dtype=data_type.numpy_dtype)


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
