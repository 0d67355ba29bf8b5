"""The serving layer: plan caching, cross-session sharing, and governance.

Built for the warm path: a session serving the same (or similar) batches
repeatedly should pay optimization once (:class:`PlanCache`), share work
with its neighbours (:class:`SharedBatchCoordinator`), and stay
responsive under load (:class:`ResourceGovernor` admission control plus
per-batch :class:`QueryBudget` deadlines and spool budgets, with graceful
degradation to the paper's no-sharing baseline). See README.md § Serving
and § Resource governance for semantics and DESIGN.md for the mapping back
to the paper's §5.4/§5.5.
"""

from ..executor.schedule import Schedule, TaskSpec, build_schedule
from .cache import CacheEntry, PlanCache
from .coordinator import SharedBatchCoordinator, SharedOutcome
from .fingerprint import (
    CacheKey,
    batch_fingerprint,
    batch_tables,
    cache_key,
    config_key,
)
from .governor import CancellationToken, QueryBudget, ResourceGovernor

__all__ = [
    "CacheEntry",
    "CacheKey",
    "CancellationToken",
    "PlanCache",
    "QueryBudget",
    "ResourceGovernor",
    "Schedule",
    "SharedBatchCoordinator",
    "SharedOutcome",
    "TaskSpec",
    "batch_fingerprint",
    "batch_tables",
    "build_schedule",
    "cache_key",
    "config_key",
]
