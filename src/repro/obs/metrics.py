"""Metrics: counters, gauges, and histograms for optimizer and executor.

A :class:`MetricsRegistry` is the single sink for everything the paper's
experiment tables count — candidate CSEs surviving each heuristic, spool
materializations vs. reads, optimization passes — measured at runtime
instead of re-derived from planner estimates. Design goals:

* **Near-zero overhead when disabled.** Every mutator checks ``enabled``
  first and returns immediately. The default registry
  (:data:`NULL_REGISTRY`) is disabled, so uninstrumented callers pay one
  attribute load and one branch.
* **Thread-safe when enabled.** A single lock guards the maps; increments
  are coarse (per operator / per optimization phase, never per row), so
  contention is negligible. The optimizer counts its own work on
  :class:`~repro.optimizer.state.OptimizerStats` and publishes it once
  per optimization.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Dict, Iterator, Optional

from .histogram import Histogram


def series_key(name: str, labels: Optional[Dict[str, str]] = None) -> str:
    """A registry storage key for one (name, labels) series.

    Labels render Prometheus-style — ``name{k="v",…}`` with keys sorted —
    so the exporter can split the key back into family and label set."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


def split_series_key(key: str) -> "tuple[str, str]":
    """Inverse of :func:`series_key`: ``(name, rendered label pairs)``."""
    if key.endswith("}") and "{" in key:
        name, _, labels = key.partition("{")
        return name, labels[:-1]
    return key, ""


@dataclass
class OperatorStats:
    """Actuals for one physical operator instance (EXPLAIN ANALYZE).

    ``wall_time`` is inclusive of children; renderers subtract child times
    for self-time. ``rows_out`` accumulates across invocations (an operator
    runs once per bundle execution here, but spool bodies shared by nested
    plans may be skipped entirely)."""

    invocations: int = 0
    rows_out: int = 0
    wall_time: float = 0.0

    def merge(self, other: "OperatorStats") -> None:
        """Accumulate another slot for the same operator (a plan node
        shared between concurrently executed queries gets one stats slot
        per worker; merging reproduces the serial single-slot totals)."""
        self.invocations += other.invocations
        self.rows_out += other.rows_out
        self.wall_time += other.wall_time


class MetricsRegistry:
    """Thread-safe counters, gauges, and histograms, keyed by dotted names.

    Conventions: counters are monotonic event counts
    (``optimizer.candidates_generated``), gauges are last-write-wins
    observations (``optimizer.memo_groups``), histograms are
    distributions — durations are histograms named ``*_seconds``
    (``bench.optimize_seconds``).
    """

    __slots__ = ("enabled", "_lock", "_counters", "_gauges", "_histograms")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- mutators ----------------------------------------------------------

    def counter(self, name: str, delta: float = 1) -> None:
        """Add ``delta`` to counter ``name`` (no-op when disabled)."""
        if not self.enabled:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + delta

    def gauge(
        self,
        name: str,
        value: float,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        """Set gauge ``name`` to ``value`` (no-op when disabled).

        ``labels`` tags the series (e.g. ``{"spool": "E1"}``): each
        distinct label set is its own last-write-wins slot, and the
        Prometheus exporter renders the labels onto the sample."""
        if not self.enabled:
            return
        key = series_key(name, labels)
        with self._lock:
            self._gauges[key] = value

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time the block and observe its seconds into histogram ``name``."""
        start = perf_counter()
        try:
            yield
        finally:
            self.observe(name, perf_counter() - start)

    def observe(
        self,
        name: str,
        value: float,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        """Record one observation into histogram ``name`` (no-op when
        disabled). Histograms are created on first use with the shared
        log-bucket layout (:data:`~repro.obs.histogram.DEFAULT_BOUNDS`).

        ``labels`` tags the series (e.g. ``{"outcome": "ok"}``): each
        distinct label set is its own histogram, and the Prometheus
        exporter renders the labels onto every sample of the series."""
        if not self.enabled:
            return
        key = series_key(name, labels)
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = Histogram()
        histogram.observe(value)

    def reset(self) -> None:
        """Clear all recorded values (the enabled flag is untouched)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- readers -----------------------------------------------------------

    def get(
        self,
        name: str,
        default: float = 0.0,
        labels: Optional[Dict[str, str]] = None,
    ) -> float:
        """A counter or gauge value by name (``default`` when absent)."""
        key = series_key(name, labels)
        with self._lock:
            if key in self._counters:
                return self._counters[key]
            return self._gauges.get(key, default)

    def histogram(
        self, name: str, labels: Optional[Dict[str, str]] = None
    ) -> Optional[Histogram]:
        """The histogram recorded under ``name`` (+ ``labels``), if any."""
        with self._lock:
            return self._histograms.get(series_key(name, labels))

    def snapshot(self) -> Dict[str, Any]:
        """A point-in-time copy: ``{"counters", "gauges", "histograms"}``.
        Histogram entries carry count/sum/min/max and p50/p95/p99
        estimates."""
        with self._lock:
            histograms = dict(self._histograms)
            payload = {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
            }
        # Histogram snapshots take each histogram's own lock; never while
        # holding the registry lock.
        payload["histograms"] = {
            name: histogram.snapshot() for name, histogram in histograms.items()
        }
        return payload

    def render_prometheus(self) -> str:
        """This registry in Prometheus text exposition format (0.0.4)."""
        from .exporter import render_prometheus  # local: exporter imports us

        return render_prometheus(self)

    def merge(self, other: "MetricsRegistry") -> None:
        """Accumulate another registry's values into this one."""
        incoming = other.snapshot()
        if not self.enabled:
            return
        with other._lock:
            incoming_histograms = dict(other._histograms)
        with self._lock:
            for name, value in incoming["counters"].items():
                self._counters[name] = self._counters.get(name, 0) + value
            self._gauges.update(incoming["gauges"])
            for name, histogram in incoming_histograms.items():
                mine = self._histograms.get(name)
                if mine is None:
                    mine = self._histograms[name] = Histogram(histogram.bounds)
                mine.merge(histogram)


#: The default, disabled registry: every call is a cheap no-op.
NULL_REGISTRY = MetricsRegistry(enabled=False)
