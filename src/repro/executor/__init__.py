"""Vectorized execution of physical plan bundles."""

from .runtime import ExecutionContext, ExecutionMetrics
from .executor import BatchResult, BatchState, Executor, QueryResult

__all__ = [
    "ExecutionContext",
    "ExecutionMetrics",
    "Executor",
    "BatchResult",
    "BatchState",
    "QueryResult",
]
