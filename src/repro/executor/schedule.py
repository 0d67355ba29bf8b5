"""Dependency schedules over a plan bundle's spool producer/consumer DAG.

A :class:`PlanBundle` is embarrassingly parallel between spool barriers:
each root spool must materialize before any of its consumers run, stacked
spools (§5.5) must materialize before the spools that read them, and
everything else is independent. :func:`build_schedule` extracts that DAG as
a list of :class:`TaskSpec` — one per root spool and one per query — with
dependency edges expressed as task indices, ready to hand to the executor's
task runner (or to anything else that wants the topology, e.g. EXPLAIN
tooling or tests). :meth:`Schedule.select` picks the tasks one caller runs:
the whole bundle, only its producers, or a named subset of its queries.

Spools defined *inside* a query plan (single-query LCA placements, rendered
as ``PhysSpoolDef`` nodes) are private to that query's task: the optimizer
settles a candidate at a group dominating all its consumers, so a spool
whose consumers span queries is always lifted to the bundle root.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Set, Tuple

from ..obs import SpanContext
from ..optimizer.physical import (
    PhysicalPlan,
    PhysSpoolRead,
    PlanBundle,
    QueryPlan,
)


@dataclass(frozen=True)
class TaskSpec:
    """One schedulable unit: materialize a spool, or run a query."""

    index: int
    kind: str  # "spool" | "query"
    label: str  # cse id, or query name
    #: indices of tasks that must complete before this one starts.
    deps: Tuple[int, ...] = ()
    #: the trace context the task should run under — the scheduling
    #: thread's batch span, stamped at submit time so worker-thread spans
    #: parent under the batch root instead of being orphaned (the
    #: cross-thread half lives in :meth:`repro.obs.Tracer.attach`).
    span_context: Optional[SpanContext] = None


@dataclass
class Schedule:
    """The bundle's task DAG in a topologically valid order."""

    tasks: List[TaskSpec] = field(default_factory=list)

    @property
    def width(self) -> int:
        """The maximum number of tasks runnable concurrently (antichain
        bound computed level-by-level: tasks whose dependencies all sit in
        earlier levels share a level)."""
        level: Dict[int, int] = {}
        counts: Dict[int, int] = {}
        for task in self.tasks:
            task_level = (
                max((level[d] for d in task.deps), default=-1) + 1
            )
            level[task.index] = task_level
            counts[task_level] = counts.get(task_level, 0) + 1
        return max(counts.values(), default=0)

    def select(
        self,
        queries: Optional[Collection[str]] = None,
        present: Collection[str] = (),
        spools_only: bool = False,
    ) -> List[TaskSpec]:
        """The tasks one caller runs, in schedule order.

        ``queries`` names the query tasks wanted (``None``: the whole
        bundle, which also materializes every root spool, read or not).
        A spool in ``present`` is already materialized: it is neither run
        nor chased for its own dependencies. Of the remaining spool
        tasks, only those a selected task transitively depends on are
        kept. ``spools_only`` then drops the query tasks themselves —
        the producer phase of a batch whose queries run elsewhere."""
        demanded: Set[int] = set()
        chosen: List[TaskSpec] = []
        # One reverse sweep closes over transitive dependencies: the task
        # list is topologically ordered, so every reader precedes (in
        # reverse) the producers it demands.
        for task in reversed(self.tasks):
            if task.kind == "query":
                run = queries is None or task.label in queries
            else:
                run = task.label not in present and (
                    queries is None or task.index in demanded
                )
            if run:
                demanded.update(task.deps)
                if not (spools_only and task.kind == "query"):
                    chosen.append(task)
        chosen.reverse()
        return chosen

    def describe(self) -> str:
        """One line per task: kind, label, and dependency labels."""
        by_index = {t.index: t for t in self.tasks}
        lines = []
        for task in self.tasks:
            deps = ", ".join(by_index[d].label for d in task.deps)
            suffix = f" <- [{deps}]" if deps else ""
            lines.append(f"{task.kind} {task.label}{suffix}")
        return "\n".join(lines)


def _spool_reads(plan: PhysicalPlan) -> Set[str]:
    return {
        node.cse_id
        for node in plan.walk()
        if isinstance(node, PhysSpoolRead)
    }


def _query_reads(query: QueryPlan) -> Set[str]:
    reads: Set[str] = _spool_reads(query.plan)
    for sub_plan in query.subquery_plans.values():
        reads |= _spool_reads(sub_plan)
    return reads


def query_spool_read_counts(
    bundle: PlanBundle,
) -> Dict[str, Dict[str, int]]:
    """Per-query spool read counts: ``query name -> cse id -> reads``.

    Counts every :class:`PhysSpoolRead` in each query's plan and scalar
    subplans (root spools and inline definitions alike) — the planned
    consumer structure the sharing ledger attributes savings over."""
    counts: Dict[str, Dict[str, int]] = {}
    for query in bundle.queries:
        reads: Dict[str, int] = {}
        plans = [query.plan, *query.subquery_plans.values()]
        for plan in plans:
            for node in plan.walk():
                if isinstance(node, PhysSpoolRead):
                    reads[node.cse_id] = reads.get(node.cse_id, 0) + 1
        counts[query.name] = reads
    return counts


def build_schedule(bundle: PlanBundle) -> Schedule:
    """The producer→consumer task DAG for one bundle.

    Tasks are emitted spools-first in the bundle's (already topological)
    spool order, then queries in batch order, so executing the schedule
    serially in task order is exactly the serial executor's order."""
    tasks: List[TaskSpec] = []
    spool_index: Dict[str, int] = {}
    for cse_id, body in bundle.root_spools:
        # Reads of ids outside spool_index are either inline PhysSpoolDef
        # definitions (private to this task) or planner bugs the executor's
        # "read before materialization" error will surface; the bundle's
        # spool order is already toposorted, so every root-spool dependency
        # is indexed by the time its reader is reached.
        deps = {
            spool_index[dep]
            for dep in _spool_reads(body)
            if dep in spool_index
        }
        index = len(tasks)
        tasks.append(
            TaskSpec(
                index=index,
                kind="spool",
                label=cse_id,
                deps=tuple(sorted(deps)),
            )
        )
        spool_index[cse_id] = index
    for query in bundle.queries:
        deps = {
            spool_index[dep]
            for dep in _query_reads(query)
            if dep in spool_index
        }
        tasks.append(
            TaskSpec(
                index=len(tasks),
                kind="query",
                label=query.name,
                deps=tuple(sorted(deps)),
            )
        )
    return Schedule(tasks=tasks)
