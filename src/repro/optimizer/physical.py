"""Physical plan operators.

A physical plan is an operator tree whose leaves scan base tables or read
spooled work tables. Intermediate results flow as *frames*: mappings from
expression keys (column references, aggregate expressions, partial-aggregate
outputs) to numpy column arrays. Each node records the expression keys it
outputs plus its estimated cardinality and ``est_cost``, the cost the search
charged for the node's whole subtree, set where the node is built. EXPLAIN
reads those numbers; it never prices a node again.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..expr.expressions import ColumnRef, Expr, TableRef
from ..logical.blocks import OutputColumn
from .aggs import AggCompute


class PhysicalPlan:
    """Base class for physical operators.

    Plans are treated as immutable once built: the optimizer's §5.4
    history cache hands the same node objects out to every Step-3 pass
    whose relevant candidate set matches, and `_assemble`'s folded plan
    tuples alias them freely. Nothing may mutate a node after
    construction, so a node carries exactly one ``est_cost``."""

    est_rows: float = 0.0
    est_cost: float = 0.0

    def children(self) -> Tuple["PhysicalPlan", ...]:
        return ()

    def walk(self):
        yield self
        for child in self.children():
            yield from child.walk()

    def fingerprint(self) -> str:
        """Stable short digest of the plan's shape (sha256 of
        :meth:`describe`, first 16 hex chars) — what the history-reuse
        tests and benchmarks compare across optimizer modes."""
        text = self.describe().encode("utf-8")
        return hashlib.sha256(text).hexdigest()[:16]

    # -- explain -----------------------------------------------------------

    def describe(self, indent: int = 0) -> str:
        lines = [("  " * indent) + self._describe_line()]
        for child in self.children():
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def _describe_line(self) -> str:
        return type(self).__name__


@dataclass
class PhysScan(PhysicalPlan):
    """Sequential scan of a base table with pushed-down filters."""

    table_ref: TableRef
    conjuncts: Tuple[Expr, ...]
    outputs: Tuple[Expr, ...]
    est_rows: float = 0.0
    est_cost: float = 0.0

    def _describe_line(self) -> str:
        return (
            f"Scan {self.table_ref.physical_name} as {self.table_ref.display_name}"
            f" filters={len(self.conjuncts)} (~{self.est_rows:.0f} rows)"
        )


@dataclass
class PhysIndexScan(PhysicalPlan):
    """Range-index access on one column plus residual filters."""

    table_ref: TableRef
    column: ColumnRef
    low: Optional[float]
    high: Optional[float]
    low_inclusive: bool
    high_inclusive: bool
    residual: Tuple[Expr, ...]
    outputs: Tuple[Expr, ...]
    est_rows: float = 0.0
    est_cost: float = 0.0

    def _describe_line(self) -> str:
        return (
            f"IndexScan {self.table_ref.physical_name}.{self.column.column} "
            f"range=[{self.low},{self.high}] (~{self.est_rows:.0f} rows)"
        )


@dataclass
class PhysHashJoin(PhysicalPlan):
    """Hash join; with no keys it degrades to a (filtered) cross product.

    ``join_type`` is ``"inner"`` (default), ``"left_outer"``, ``"semi"``,
    or ``"anti"``. Non-inner joins preserve the left (probe) side: semi
    keeps left rows with a match, anti those without, left_outer keeps all
    left rows and null-extends the right columns of unmatched ones.
    """

    left: PhysicalPlan
    right: PhysicalPlan
    keys: Tuple[Tuple[Expr, Expr], ...]  # (left key, right key) pairs
    residual: Tuple[Expr, ...]
    outputs: Tuple[Expr, ...]
    est_rows: float = 0.0
    join_type: str = "inner"
    est_cost: float = 0.0

    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.left, self.right)

    def _describe_line(self) -> str:
        keys = ", ".join(f"{l!r}={r!r}" for l, r in self.keys)
        if self.join_type == "inner":
            kind = "HashJoin" if self.keys else "CrossJoin"
        else:
            kind = {
                "left_outer": "LeftOuterHashJoin",
                "semi": "SemiHashJoin",
                "anti": "AntiHashJoin",
            }[self.join_type]
        return f"{kind} on [{keys}] (~{self.est_rows:.0f} rows)"


@dataclass
class PhysHashAgg(PhysicalPlan):
    """Hash aggregation: group by ``keys``, evaluate ``computes``."""

    child: PhysicalPlan
    keys: Tuple[Expr, ...]
    computes: Tuple[AggCompute, ...]
    est_rows: float = 0.0
    est_cost: float = 0.0

    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    @property
    def outputs(self) -> Tuple[Expr, ...]:
        return tuple(self.keys) + tuple(c.out for c in self.computes)

    def _describe_line(self) -> str:
        return (
            f"HashAgg keys={len(self.keys)} aggs={len(self.computes)}"
            f" (~{self.est_rows:.0f} rows)"
        )


@dataclass
class PhysIdentityAgg(PhysHashAgg):
    """An aggregation whose input is unique on ``keys`` (a key fact): every
    row is its own group, so the aggregates are evaluated row by row and
    nothing is hashed. Priced, and charged, as a projection of its
    outputs over the input rows."""

    def _describe_line(self) -> str:
        return (
            f"IdentityAgg keys={len(self.keys)} aggs={len(self.computes)}"
            f" (~{self.est_rows:.0f} rows)"
        )


@dataclass
class PhysFilter(PhysicalPlan):
    """Apply residual/compensation conjuncts."""

    child: PhysicalPlan
    conjuncts: Tuple[Expr, ...]
    est_rows: float = 0.0
    est_cost: float = 0.0

    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def _describe_line(self) -> str:
        return f"Filter {list(self.conjuncts)!r} (~{self.est_rows:.0f} rows)"


@dataclass
class PhysProject(PhysicalPlan):
    """Compute named output columns (the top of a query or a spool body)."""

    child: PhysicalPlan
    outputs: Tuple[OutputColumn, ...]
    est_rows: float = 0.0
    est_cost: float = 0.0

    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def _describe_line(self) -> str:
        names = ", ".join(o.name for o in self.outputs)
        return f"Project [{names}]"


@dataclass
class PhysSort(PhysicalPlan):
    """Order rows by (expression, descending) items."""

    child: PhysicalPlan
    sort_items: Tuple[Tuple[Expr, bool], ...]
    est_rows: float = 0.0
    est_cost: float = 0.0

    def children(self) -> Tuple[PhysicalPlan, ...]:
        return (self.child,)

    def _describe_line(self) -> str:
        return f"Sort {[(repr(e), d) for e, d in self.sort_items]!r}"


@dataclass
class PhysSpoolRead(PhysicalPlan):
    """Read a materialized CSE work table, renaming its named columns to the
    consumer's expression keys (§5.1 substitute)."""

    cse_id: str
    column_map: Tuple[Tuple[str, Expr], ...]  # (work-table column, consumer key)
    est_rows: float = 0.0
    est_cost: float = 0.0

    @property
    def outputs(self) -> Tuple[Expr, ...]:
        return tuple(expr for _, expr in self.column_map)

    def _describe_line(self) -> str:
        return f"SpoolRead {self.cse_id} (~{self.est_rows:.0f} rows)"


@dataclass
class PhysSpoolDef(PhysicalPlan):
    """Materialize one or more spools, then evaluate the child once.

    Emitted at a CSE's least common ancestor (§5.2): every spool body below
    is computed exactly once and read by each consumer in the subtree.
    """

    spools: Tuple[Tuple[str, PhysicalPlan], ...]  # (cse_id, body plan)
    child: PhysicalPlan
    est_rows: float = 0.0
    est_cost: float = 0.0

    def children(self) -> Tuple[PhysicalPlan, ...]:
        return tuple(body for _, body in self.spools) + (self.child,)

    def _describe_line(self) -> str:
        ids = ", ".join(cid for cid, _ in self.spools)
        return f"SpoolDef [{ids}]"


@dataclass
class QueryPlan:
    """One finalized query plan plus the plans of its scalar subqueries."""

    name: str
    plan: PhysicalPlan
    subquery_plans: Dict[str, PhysicalPlan] = field(default_factory=dict)
    output_names: List[str] = field(default_factory=list)


@dataclass
class PlanBundle:
    """The final batch plan: shared spools (dependency order) + queries."""

    root_spools: Tuple[Tuple[str, PhysicalPlan], ...]
    queries: List[QueryPlan]
    est_cost: float

    def describe(self) -> str:
        """Human-readable text of all plans, spools first."""
        lines: List[str] = []
        for cse_id, body in self.root_spools:
            lines.append(f"Spool {cse_id}:")
            lines.append(body.describe(1))
        for query in self.queries:
            for sid, plan in query.subquery_plans.items():
                lines.append(f"{query.name} subquery {sid}:")
                lines.append(plan.describe(1))
            lines.append(f"{query.name}:")
            lines.append(query.plan.describe(1))
        return "\n".join(lines)

    def fingerprint(self) -> str:
        """Stable short digest of the whole bundle's shape — what the
        history-reuse tests and benchmarks compare to assert that §5.4
        reuse changed the work done, not the plans chosen."""
        text = self.describe().encode("utf-8")
        return hashlib.sha256(text).hexdigest()[:16]

    def used_cses(self) -> List[str]:
        """CSE ids actually materialized by this bundle, in order."""
        used: List[str] = [cid for cid, _ in self.root_spools]
        for query in self.queries:
            plans = [query.plan] + list(query.subquery_plans.values())
            for plan in plans:
                for node in plan.walk():
                    if isinstance(node, PhysSpoolDef):
                        used.extend(cid for cid, _ in node.spools)
        seen: Set[str] = set()
        ordered: List[str] = []
        for cid in used:
            if cid not in seen:
                seen.add(cid)
                ordered.append(cid)
        return ordered
