"""Secondary range indexes.

A :class:`RangeIndex` keeps the row positions of a table sorted by one
column's value, so equality and range lookups cost ``O(log n + matches)``.
The optimizer models an index lookup as touching only the matching rows,
which is what makes some expressions "too cheap to share" — the situation
the paper's Heuristic 3 / Example 7 relies on.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import StorageError
from .table import Table


class RangeIndex:
    """Sorted-position index over a single numeric/date column."""

    def __init__(self, name: str, table: Table, column: str) -> None:
        schema_col = table.schema.column(column)
        if not schema_col.data_type.is_numeric:
            raise StorageError(
                f"index {name!r}: column {column!r} is not numeric/date"
            )
        self.name = name
        self.table = table
        self.column = column
        self._build()

    def _build(self) -> None:
        values = self.table.column(self.column)
        self._order = np.argsort(values, kind="stable")
        self._sorted_values = values[self._order]

    def refresh(self) -> None:
        """Rebuild after the underlying table changed."""
        self._build()

    @property
    def entry_count(self) -> int:
        """Number of indexed rows."""
        return len(self._sorted_values)

    def lookup_range(
        self,
        low: Optional[float] = None,
        high: Optional[float] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> np.ndarray:
        """Row positions whose column value lies in the given range."""
        if self.entry_count == 0:
            return np.empty(0, dtype=np.int64)
        lo_pos = 0
        hi_pos = self.entry_count
        if low is not None:
            side = "left" if low_inclusive else "right"
            lo_pos = int(np.searchsorted(self._sorted_values, low, side=side))
        if high is not None:
            side = "right" if high_inclusive else "left"
            hi_pos = int(np.searchsorted(self._sorted_values, high, side=side))
        if hi_pos <= lo_pos:
            return np.empty(0, dtype=np.int64)
        return self._order[lo_pos:hi_pos]

    def lookup_equal(self, value: float) -> np.ndarray:
        """Row positions whose column equals ``value``."""
        return self.lookup_range(low=value, high=value)
