"""Table and column statistics used for cardinality estimation.

Statistics are collected by scanning stored tables (see
:meth:`repro.storage.database.Database.analyze`). The estimator (in
``repro.optimizer.cardinality``) relies on:

* table cardinality,
* per-column NDV (number of distinct values),
* per-column min/max for range-selectivity under a uniformity assumption,
* an optional equi-depth histogram for numeric columns, which sharpens range
  estimates on skewed columns;
* the declared primary key, once verified on the stored rows (the
  optimizer's key facts, :mod:`repro.optimizer.keys`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..types import DataType, string_pool


@dataclass
class Histogram:
    """Equi-depth histogram over a numeric column.

    ``buckets`` holds ``(low, high, count)`` triples with *inclusive*
    bounds, built by slicing the sorted column into (nearly) equal-count
    runs. A bucket with ``low == high`` is a singleton-value bucket — this
    representation keeps estimates sharp on skewed columns, where quantile
    boundaries collapse.
    """

    buckets: List[Tuple[float, float, int]]
    #: total rows covered by the histogram.
    total: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.total = sum(count for _, _, count in self.buckets)

    @classmethod
    def build(cls, values: np.ndarray, buckets: int = 32) -> "Histogram":
        """Equi-depth histogram from raw column values."""
        n = len(values)
        if n == 0:
            return cls(buckets=[])
        data = np.sort(values.astype(np.float64))
        bucket_count = max(1, min(buckets, n))
        edges = np.linspace(0, n, bucket_count + 1).astype(int)
        built: List[Tuple[float, float, int]] = []
        for i in range(bucket_count):
            lo_idx, hi_idx = edges[i], edges[i + 1]
            if hi_idx <= lo_idx:
                continue
            built.append(
                (float(data[lo_idx]), float(data[hi_idx - 1]), int(hi_idx - lo_idx))
            )
        return cls(buckets=built)

    def fraction_below(self, value: float, inclusive: bool) -> float:
        """Estimated fraction of rows with column value < (or <=) ``value``."""
        total = self.total
        if total == 0:
            return 0.0
        covered = 0.0
        for low, high, count in self.buckets:
            if value > high or (inclusive and value == high):
                covered += count
                continue
            if value < low or (not inclusive and value == low):
                break
            width = high - low
            if width <= 0:
                # Singleton bucket with low == value == high, exclusive.
                break
            covered += count * (value - low) / width
            break
        return min(1.0, covered / total)

    def fraction_between(
        self, low: Optional[float], high: Optional[float],
        low_inclusive: bool = True, high_inclusive: bool = True,
    ) -> float:
        """Estimated fraction of rows within [low, high]."""
        lo_frac = 0.0 if low is None else self.fraction_below(low, not low_inclusive)
        hi_frac = 1.0 if high is None else self.fraction_below(high, high_inclusive)
        return max(0.0, hi_frac - lo_frac)


#: Collect most-common values for columns with at most this many distincts.
MCV_NDV_LIMIT = 64
#: Keep at most this many (value, frequency) pairs.
MCV_SIZE = 16


@dataclass
class ColumnStats:
    """Statistics for one column of one table."""

    ndv: int
    min_value: Optional[float] = None
    max_value: Optional[float] = None
    histogram: Optional[Histogram] = None
    #: most-common values: value -> fraction of rows, for low-NDV columns.
    mcv: Dict[object, float] = field(default_factory=dict)

    @classmethod
    def collect(
        cls, values: np.ndarray, data_type: DataType, histogram_buckets: int = 32
    ) -> "ColumnStats":
        """Collect stats (NDV, min/max, histogram, MCV) for one column as
        stored (``Table.stored_column``: STRING values are pool codes)."""
        n = len(values)
        if n == 0:
            return cls(ndv=0)
        if data_type is DataType.STRING:
            per_code = np.bincount(values)
            present = np.flatnonzero(per_code)
            ndv = len(present)
            if ndv > MCV_NDV_LIMIT:
                return cls(ndv=ndv)
            strings = string_pool.decode(present).tolist()
            counts = dict(zip(strings, per_code[present].tolist()))
            return cls(ndv=ndv, mcv=_mcv_from_counts(counts, n))
        unique, unique_counts = np.unique(values, return_counts=True)
        ndv = int(len(unique))
        as_float = values.astype(np.float64)
        histogram = None
        if histogram_buckets > 0:
            histogram = Histogram.build(values, histogram_buckets)
        mcv: Dict[object, float] = {}
        if ndv <= MCV_NDV_LIMIT:
            counts = dict(zip(unique.tolist(), unique_counts.tolist()))
            mcv = _mcv_from_counts(counts, n)
        return cls(
            ndv=ndv,
            min_value=float(as_float.min()),
            max_value=float(as_float.max()),
            histogram=histogram,
            mcv=mcv,
        )

    def widened(
        self, appended: np.ndarray, data_type: DataType, row_count: int
    ) -> "ColumnStats":
        """These statistics after ``appended`` (stored form) joined the
        column, now ``row_count`` rows long, read from the appended values
        only: min/max widen; the NDV grows by the appended distinct values
        not already known present (the MCVs list every value when there
        are ``ndv`` of them), capped by the row count and, for integer
        columns, by the widened range's width; the histogram and MCVs are
        kept as collected."""
        if len(appended) == 0:
            return self
        distinct = np.unique(appended)
        fresh = len(distinct)
        if len(self.mcv) == self.ndv:
            values = (
                string_pool.decode(distinct)
                if data_type is DataType.STRING
                else distinct
            )
            fresh = sum(v not in self.mcv for v in values.tolist())
        ndv = min(self.ndv + fresh, row_count)
        if data_type is DataType.STRING:
            return replace(self, ndv=ndv)
        low, high = float(distinct[0]), float(distinct[-1])
        if self.min_value is not None:
            low, high = min(low, self.min_value), max(high, self.max_value)
        if distinct.dtype.kind in "iu":
            ndv = min(ndv, int(high - low) + 1)
        return replace(self, ndv=ndv, min_value=low, max_value=high)


def _mcv_from_counts(counts: Dict[object, int], total: int) -> Dict[object, float]:
    top = sorted(counts.items(), key=lambda kv: (-kv[1], repr(kv[0])))[:MCV_SIZE]
    return {value: count / total for value, count in top}


def is_unique(columns: Sequence[np.ndarray]) -> bool:
    """Whether no two rows agree on all of ``columns`` (stored form).

    Direct-addressed: each column is coded ``value - min`` while its span
    stays within a small multiple of the row count (``np.unique`` codes
    floats and sparse integers), the codes are mixed by radix, and one
    ``bincount`` counts each key. A mixed domain that outgrows the bound is
    re-coded first, so no table is larger than the rows."""
    count = len(columns[0])
    if count == 0:
        return True
    bound = 4 * count + 1024
    codes, domain = np.zeros(count, dtype=np.int64), 1
    for column in columns:
        column_codes, radix = _dense_codes(column, bound)
        codes, domain = codes * radix + column_codes, domain * radix
        if domain > bound:
            codes, domain = _dense_codes(codes, bound)
    return int(np.bincount(codes, minlength=domain).max()) <= 1


def _dense_codes(values: np.ndarray, bound: int) -> Tuple[np.ndarray, int]:
    """``(int64 codes, domain)``, equal codes iff equal values."""
    if values.dtype.kind in "biu":
        ints = values.astype(np.int64, copy=False)
        low = int(ints.min())
        span = int(ints.max()) - low + 1
        if span <= bound:
            return ints - low, span
    uniques, inverse = np.unique(values, return_inverse=True)
    return inverse.astype(np.int64, copy=False).reshape(-1), len(uniques)


@dataclass
class TableStats:
    """Statistics for one table."""

    row_count: int
    columns: Dict[str, ColumnStats] = field(default_factory=dict)
    #: The declared primary key, when ``analyze`` found it holds on the
    #: stored rows (declared keys are not enforced); else empty. An insert
    #: re-verifies it over the stored key columns and drops it once a
    #: duplicate lands; a ``load`` verifies it afresh.
    primary_key: Tuple[str, ...] = ()

    def column(self, name: str) -> Optional[ColumnStats]:
        """Stats for one column, if collected."""
        return self.columns.get(name)

    def ndv(self, name: str, default: Optional[int] = None) -> Optional[int]:
        """A column's NDV, or ``default`` when unknown."""
        stats = self.columns.get(name)
        if stats is None:
            return default
        return stats.ndv
