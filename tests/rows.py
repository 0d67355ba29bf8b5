"""The one row comparator of the test suite.

Results compare as bags. Both sides are sorted on a key in which every
number is rounded to three places, then compared row by row:

* NULL (``None``, or NaN in a float64 column) equals only NULL;
* numbers are equal within a relative and absolute 1e-6 — the vectorized
  executor and the row-at-a-time oracle sum floats in different orders,
  and a null-extended INT column comes back as float64;
* every other value must be equal.

Comparisons that pin row *order* (``tests/test_null_ordering.py``) or
byte identity (``(columns, rows) == ...``) do not use it.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

_NUMBER = (int, float, np.number)


def _null(value) -> bool:
    return value is None or (isinstance(value, float) and math.isnan(value))


def _key(row) -> tuple:
    # Tagged so that NULLs, numbers and strings of one column always compare.
    return tuple(
        (0, 0.0) if _null(v)
        else (1, round(float(v), 3)) if isinstance(v, _NUMBER)
        else (2, v)
        for v in row
    )


def _same(a, b) -> bool:
    if a == b:
        return True
    if _null(a) or _null(b):
        return _null(a) and _null(b)
    if isinstance(a, _NUMBER) and isinstance(b, _NUMBER):
        return math.isclose(float(a), float(b), rel_tol=1e-6, abs_tol=1e-6)
    return False


def rows_differ(got: Sequence, want: Sequence) -> Optional[str]:
    """None when the two bags of rows agree, else the first difference."""
    if len(got) != len(want):
        return f"{len(got)} row(s), want {len(want)}"
    for g, w in zip(sorted(got, key=_key), sorted(want, key=_key)):
        if len(g) != len(w) or not all(map(_same, g, w)):
            return f"row {tuple(g)!r}, want {tuple(w)!r}"
    return None


def assert_same_rows(got: Sequence, want: Sequence, msg: str = "") -> None:
    """Assert :func:`rows_differ` finds nothing; ``msg`` prefixes the failure."""
    problem = rows_differ(got, want)
    assert problem is None, f"{msg}: {problem}" if msg else problem
