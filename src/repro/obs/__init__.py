"""Observability: metrics, histograms, tracing, export, and audit logs.

This package is dependency-free within :mod:`repro` (nothing here imports
the optimizer or executor) so any layer can emit metrics, trace events
(the optimizer's decisions among them) or query-log records without
import cycles. See
README.md § Observability and § Telemetry for the schemas.
"""

from .exporter import (
    TelemetryServer,
    parse_prometheus_text,
    render_prometheus,
    sanitize_metric_name,
)
from .histogram import DEFAULT_BOUNDS, Histogram
from .journal import render_why
from .metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    OperatorStats,
)
from .chrome import render_chrome_trace, to_chrome_trace
from .critical import (
    CriticalPathReport,
    analyze,
    find_orphans,
    load_trace,
    operator_attribution,
    render_critical_path,
    render_summary,
)
from .ledger import build_ledger, publish_ledger, render_ledger
from .querylog import NULL_QUERY_LOG, QueryLog
from .trace import (
    NULL_CONTEXT,
    NULL_TRACER,
    TRACE_HEADER_TYPE,
    SpanContext,
    TraceEvent,
    Tracer,
    active_tracer,
    use_tracer,
)

__all__ = [
    "MetricsRegistry",
    "NULL_REGISTRY",
    "OperatorStats",
    "Histogram",
    "DEFAULT_BOUNDS",
    "render_prometheus",
    "parse_prometheus_text",
    "sanitize_metric_name",
    "TelemetryServer",
    "QueryLog",
    "NULL_QUERY_LOG",
    "render_why",
    "Tracer",
    "TraceEvent",
    "NULL_TRACER",
    "active_tracer",
    "use_tracer",
    "SpanContext",
    "NULL_CONTEXT",
    "TRACE_HEADER_TYPE",
    "build_ledger",
    "publish_ledger",
    "render_ledger",
    "CriticalPathReport",
    "analyze",
    "find_orphans",
    "load_trace",
    "operator_attribution",
    "render_critical_path",
    "render_summary",
    "to_chrome_trace",
    "render_chrome_trace",
]
