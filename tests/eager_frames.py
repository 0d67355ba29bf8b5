"""The eager frame path, kept as the oracle of late materialization.

Before frames held deferred gathers, every row selection copied every
column on the spot: a filter, a scan residual or a sort took
``column[rows]`` of each column of its input, and a join built its output
from ``left[key][left_idx]`` and ``right[key][right_idx]``. :func:`take` and
:func:`pairs` are those forms. :func:`eager_frames` swaps them in for the
executor's deferred ``_take`` and ``_pairs``, the only two places a
:class:`~repro.expr.evaluator.Gather` is made, so the same physical plan can
run both ways.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest.mock import patch

import numpy as np

from repro.executor import iterators


def take(frame, rows: np.ndarray) -> dict:
    """Every column of ``frame`` at ``rows``, copied now."""
    return {key: frame[key][rows] for key in frame}


def pairs(left, right, left_idx: np.ndarray, right_idx: np.ndarray) -> dict:
    """The joined rows, every column copied now; left wins a shared key."""
    joined = {key: left[key][left_idx] for key in left}
    for key in right:
        if key not in joined:
            joined[key] = right[key][right_idx]
    return joined


@contextmanager
def eager_frames():
    """Run the executor with eager selections (all threads see it)."""
    with patch.object(iterators, "_take", take), patch.object(
        iterators, "_pairs", pairs
    ):
        yield
