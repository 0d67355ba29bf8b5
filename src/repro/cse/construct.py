"""Covering-subexpression construction (paper §4.2).

Given a set of join-compatible consumer groups sharing one table signature,
a covering subexpression is built with the paper's six steps:

1. an N-ary join with equijoin predicates from the **intersection** of the
   consumers' equivalence classes;
2. each consumer's selection predicate *simplified* by deleting conjuncts
   already implied by the common join predicate;
3. a *covering predicate* from the OR of the simplified predicates;
4. if the consumers aggregate, a group-by whose keys are the union of all
   consumers' grouping columns plus every column the consumers' residual
   predicates reference, with the union of their aggregate expressions;
5. a projection with every column/aggregate any consumer requires;
6. a spool on top (the work table the executor materializes).

**Covering-predicate simplification.** A covering predicate only needs to be
*implied by* each consumer's predicate (it may admit extra rows — consumers
re-filter with their residuals). We therefore weaken the OR of step 3 into a
conjunction of (a) conjuncts common to all consumers and (b) per-column range
hulls. For the paper's Example 1 batch this reproduces E5's predicate
verbatim: the shared ``o_orderdate < '1996-07-01'`` is factored out and the
three ``c_nationkey`` ranges merge into ``c_nationkey > 0 and
c_nationkey < 25``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..errors import OptimizerError
from ..expr.expressions import (
    AggExpr,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expr,
    Literal,
    TableRef,
    canon_sorted,
)
from ..expr.predicates import EquivalenceClasses, non_equality_conjuncts
from ..logical.blocks import OutputColumn, QueryBlock
from ..obs import active_registry
from ..optimizer.cardinality import CardinalityEstimator, cardenas
from ..optimizer.memo import BlockInfo, Group
from .compatibility import (
    ConsumerProfile,
    consumer_profile,
    graph_connected,
    remap_expr,
)
from .signature import TableSignature


@dataclass
class CseDefinition:
    """A constructed covering subexpression (before body optimization)."""

    cse_id: str
    signature: TableSignature
    block: QueryBlock
    outputs: Tuple[OutputColumn, ...]
    #: The groups this CSE was constructed to cover (its potential consumers).
    consumer_groups: List[Group]
    #: Equality conjuncts of the intersected equivalence classes (step 1).
    joint_equalities: Tuple[Expr, ...]
    joint_classes: EquivalenceClasses
    #: Conjuncts of the (weakened) covering predicate (step 3), body space.
    covering_conjuncts: Tuple[Expr, ...]
    est_rows: float = 0.0
    row_width: int = 0

    @property
    def consumer_gids(self) -> Tuple[int, ...]:
        """Memo group ids of the covered consumers."""
        return tuple(g.gid for g in self.consumer_groups)

    @property
    def has_groupby(self) -> bool:
        """Whether the CSE aggregates (signature G flag)."""
        return self.signature.has_groupby

    @property
    def est_bytes(self) -> float:
        """Estimated result size in bytes."""
        return self.est_rows * max(self.row_width, 1)

    @property
    def group_keys(self) -> Tuple[ColumnRef, ...]:
        """The covering group-by keys (step 4)."""
        return self.block.group_keys

    @property
    def aggregates(self) -> Tuple[AggExpr, ...]:
        """The covering aggregate expressions (step 4)."""
        return self.block.aggregates

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CSE({self.cse_id} {self.signature!r} consumers={self.consumer_gids})"


# ---------------------------------------------------------------------------
# Covering-predicate weakening
# ---------------------------------------------------------------------------


def _range_bounds(
    conjuncts: Sequence[Expr],
) -> Dict[ColumnRef, Tuple[Optional[float], bool, Optional[float], bool]]:
    """Per-column (low, low_inclusive, high, high_inclusive) implied by
    ``conjuncts``; only numeric/date literals participate."""
    bounds: Dict[ColumnRef, Tuple[Optional[float], bool, Optional[float], bool]] = {}
    for conjunct in conjuncts:
        if not isinstance(conjunct, Comparison):
            continue
        normalized = conjunct.normalized()
        if not (
            isinstance(normalized.left, ColumnRef)
            and isinstance(normalized.right, Literal)
        ):
            continue
        value = normalized.right.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        column = normalized.left
        low, low_inc, high, high_inc = bounds.get(
            column, (None, True, None, True)
        )
        op = normalized.op
        if op in (ComparisonOp.GT, ComparisonOp.GE):
            inclusive = op is ComparisonOp.GE
            if low is None or value > low or (value == low and not inclusive):
                low, low_inc = float(value), inclusive
        elif op in (ComparisonOp.LT, ComparisonOp.LE):
            inclusive = op is ComparisonOp.LE
            if high is None or value < high or (value == high and not inclusive):
                high, high_inc = float(value), inclusive
        elif op is ComparisonOp.EQ:
            if low is None or value > low:
                low, low_inc = float(value), True
            if high is None or value < high:
                high, high_inc = float(value), True
        bounds[column] = (low, low_inc, high, high_inc)
    return bounds


def weakened_covering(
    residual_sets: Sequence[Sequence[Expr]],
) -> Tuple[List[Expr], List[List[Expr]]]:
    """Weaken ``OR(AND(residual_i))`` into a list of covering conjuncts.

    Returns ``(covering_conjuncts, residuals)`` where ``residuals[i]`` is
    consumer i's compensation predicate (its conjuncts minus those common to
    every consumer). Soundness: each consumer's predicate implies the
    covering conjuncts, so the CSE contains every row any consumer needs.
    """
    if not residual_sets:
        return [], []
    # (a) conjuncts present in every consumer's simplified predicate.
    others = [set(conjuncts) for conjuncts in residual_sets[1:]]
    commons = [
        conjunct for conjunct in dict.fromkeys(residual_sets[0])
        if all(conjunct in other for other in others)
    ]
    shared = set(commons)
    residuals = [
        [c for c in conjuncts if c not in shared] for conjuncts in residual_sets
    ]
    covering: List[Expr] = list(commons)
    # (b) per-column range hulls across the remaining disjuncts.
    if all(residuals):
        per_consumer_bounds = [_range_bounds(r) for r in residuals]
        shared_columns = set(per_consumer_bounds[0])
        for bounds in per_consumer_bounds[1:]:
            shared_columns &= set(bounds)
        for column in canon_sorted(shared_columns):
            lows = [b[column][0] for b in per_consumer_bounds]
            highs = [b[column][2] for b in per_consumer_bounds]
            if all(l is not None for l in lows):
                hull_low = min(lows)
                inclusive = any(
                    b[column][1] for b in per_consumer_bounds
                    if b[column][0] == hull_low
                )
                op = ComparisonOp.GE if inclusive else ComparisonOp.GT
                covering.append(
                    Comparison(op, column, _hull_literal(hull_low, column))
                )
            if all(h is not None for h in highs):
                hull_high = max(highs)
                inclusive = any(
                    b[column][3] for b in per_consumer_bounds
                    if b[column][2] == hull_high
                )
                op = ComparisonOp.LE if inclusive else ComparisonOp.LT
                covering.append(
                    Comparison(op, column, _hull_literal(hull_high, column))
                )
    return covering, residuals


def _hull_literal(value: float, column: ColumnRef) -> Literal:
    from ..types import DataType

    if column.data_type in (DataType.INT, DataType.DATE):
        if float(value).is_integer():
            return Literal(int(value), column.data_type)
    return Literal(float(value), DataType.FLOAT)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoveringState:
    """The covering subexpression of a member set, in slot space — what
    Algorithm 1 carries from one merge probe to the next.

    Holds §4.2 steps 1-5 over the slot templates plus the §4.3.3 size
    estimate, so a probe costs one class intersection and a re-derivation
    over the members' profiles; no body instances, ``QueryBlock`` or
    ``BlockInfo`` exist until :meth:`materialise`.
    """

    members: Tuple[ConsumerProfile, ...]
    #: Step 1: the intersection of the members' equivalence classes.
    joint: EquivalenceClasses
    #: Step 3: the (weakened) covering predicate.
    covering: Tuple[Expr, ...]
    #: Steps 4-5: grouping keys and aggregates, or the SPJ output columns.
    group_keys: Tuple[ColumnRef, ...]
    aggregates: Tuple[AggExpr, ...]
    columns: Tuple[ColumnRef, ...]
    est_rows: float
    row_width: int

    @property
    def consumer_groups(self) -> List[Group]:
        """The covered consumer groups, in merge order."""
        return [member.group for member in self.members]

    @classmethod
    def trivial(
        cls, profile: ConsumerProfile, estimator: Optional[CardinalityEstimator]
    ) -> Optional["CoveringState"]:
        """The trivial CSE of one consumer: "exactly the same as its only
        consumer" (§4.3)."""
        return _derive((profile,), profile.classes, estimator)

    def merged_with(
        self, profile: ConsumerProfile, estimator: Optional[CardinalityEstimator]
    ) -> Optional["CoveringState"]:
        """This state widened to cover ``profile`` too, or None when the
        members would no longer be join compatible (Def 4.1)."""
        if profile.group.signature != self.members[0].group.signature:
            raise OptimizerError("consumers have mismatched signatures")
        return _derive(
            self.members + (profile,),
            self.joint.intersect(profile.classes),
            estimator,
        )

    def materialise(
        self, cse_id: str, instance_allocator: Callable[[], int]
    ) -> CseDefinition:
        """Step 6: the state as a spoolable ``QueryBlock`` over fresh body
        instances, one per slot, allocated in slot order."""
        active_registry().counter("cse.constructions")
        body = {
            template: TableRef(
                table=template.table,
                instance=instance_allocator(),
                alias=f"{cse_id}_{template.alias}",
                is_delta=template.is_delta,
                storage_name=template.storage_name,
            )
            for template in self.members[0].tables
        }

        def to_body(exprs: Sequence[Expr]) -> tuple:
            return tuple(remap_expr(expr, body) for expr in exprs)

        joint_equalities = to_body(self.joint.equality_conjuncts())
        covering = to_body(self.covering)
        group_keys = to_body(self.group_keys)
        aggregates = to_body(self.aggregates)
        outputs = tuple(
            OutputColumn(name=f"{prefix}{i}", expr=expr)
            for prefix, exprs in (
                ("k", group_keys), ("a", aggregates), ("c", to_body(self.columns))
            )
            for i, expr in enumerate(exprs)
        )
        return CseDefinition(
            cse_id=cse_id,
            signature=self.members[0].group.signature,
            block=QueryBlock(
                name=f"__cse_{cse_id}",
                tables=tuple(body.values()),
                conjuncts=joint_equalities + covering,
                output=outputs,
                group_keys=group_keys,
                aggregates=aggregates,
            ),
            outputs=outputs,
            consumer_groups=self.consumer_groups,
            joint_equalities=joint_equalities,
            joint_classes=self.joint.mapped(lambda col: remap_expr(col, body)),
            covering_conjuncts=covering,
            est_rows=self.est_rows,
            row_width=self.row_width,
        )


def _derive(
    members: Tuple[ConsumerProfile, ...],
    joint: EquivalenceClasses,
    estimator: Optional[CardinalityEstimator],
) -> Optional[CoveringState]:
    """§4.2 steps 2-5 and the §4.3.3 estimate for ``members``, given their
    joint classes (step 1); None unless those connect the slots (Def 4.1)."""
    tables = members[0].tables
    if not graph_connected(tables, joint):
        return None
    # Step 2: each member's predicate minus what the joint classes imply.
    simplified = [
        [e for e in m.equalities if not joint.same_class(e.left, e.right)]
        + list(m.filters)
        for m in members
    ]
    # Step 3: the (weakened) covering predicate.
    covering, residuals = weakened_covering(simplified)
    # Columns the residuals reference — needed in the output (and in the
    # grouping keys for aggregated CSEs) so compensation can run.
    needed: Set[ColumnRef] = set().union(
        *(conjunct.columns() for residual in residuals for conjunct in residual)
    )
    group_keys: Tuple[ColumnRef, ...] = ()
    columns: Tuple[ColumnRef, ...] = ()
    has_groupby = members[0].group.signature.has_groupby
    # Step 4: keys = union of member keys + residual columns, and the
    # members' aggregates without repeats.
    aggregates = tuple(dict.fromkeys(a for m in members for a in m.aggregates))
    if has_groupby:
        group_keys = tuple(
            canon_sorted(needed.union(*(m.group_keys for m in members)))
        )
    else:
        # Step 5 (SPJ case): union of columns any member requires.
        columns = tuple(
            canon_sorted(needed.union(*(m.required for m in members)))
        )
    est_rows, row_width = 0.0, 0
    if estimator is not None:
        est_rows = _estimate_rows(
            tables, joint, covering, group_keys, has_groupby, estimator
        )
        row_width = estimator.width_of(group_keys + aggregates + columns)
    return CoveringState(
        members, joint, tuple(covering), group_keys, aggregates, columns,
        est_rows, row_width,
    )


def _estimate_rows(
    tables: Tuple[TableRef, ...],
    joint: EquivalenceClasses,
    covering: Tuple[Expr, ...],
    group_keys: Tuple[ColumnRef, ...],
    has_groupby: bool,
    estimator: CardinalityEstimator,
) -> float:
    """Estimate the CSE result cardinality without optimizing its body:
    base rows × class factors × covering selectivity, then Cardenas over the
    grouping keys for aggregated CSEs."""
    filters = [(c, c.tables()) for c in non_equality_conjuncts(covering)]
    rows = 1.0
    item_rows: Dict[TableRef, float] = {}
    for table in tables:
        base = estimator.table_rows(table)
        for conjunct, touched in filters:
            if touched == {table}:
                base *= estimator.selectivity(conjunct)
        item_rows[table] = max(base, 1.0)
        rows *= item_rows[table]
    for cls in joint.classes():
        ndvs: Dict[TableRef, float] = {}
        for member in cls:
            ndv = min(estimator.column_ndv(member), item_rows[member.table_ref])
            ndvs[member.table_ref] = min(ndvs.get(member.table_ref, ndv), ndv)
        rows *= estimator.class_factor_for_join(ndvs.values())
    for conjunct, touched in filters:
        if len(touched) >= 2:
            rows *= estimator.selectivity(conjunct)
    rows = max(rows, 1.0)
    if not has_groupby:
        return rows
    domain = 1.0
    representatives: List[ColumnRef] = []
    for key in group_keys:
        if any(joint.same_class(key, kept) for kept in representatives):
            continue
        representatives.append(key)
        domain *= max(min(estimator.column_ndv(key), rows), 1.0)
    return cardenas(domain, rows)


def covering_state(
    profiles: Sequence[ConsumerProfile],
    estimator: Optional[CardinalityEstimator],
) -> CoveringState:
    """Fold ``profiles`` into one covering state (§4.2 steps 1-5)."""
    if not profiles:
        raise OptimizerError("cannot construct a CSE with no consumers")
    state = CoveringState.trivial(profiles[0], estimator)
    for profile in profiles[1:]:
        if state is None:
            break
        state = state.merged_with(profile, estimator)
    if state is None:
        raise OptimizerError(
            "consumers "
            + ",".join(f"g{p.group.gid}" for p in profiles)
            + " are not join compatible"
        )
    return state


def construct_cse(
    cse_id: str,
    consumers: Sequence[Group],
    infos: Dict[str, BlockInfo],
    instance_allocator: Callable[[], int],
    estimator: Optional[CardinalityEstimator] = None,
) -> CseDefinition:
    """Build a CSE covering ``consumers`` (paper §4.2 steps 1-6)."""
    profiles = [consumer_profile(g, infos[g.block.name]) for g in consumers]
    return covering_state(profiles, estimator).materialise(
        cse_id, instance_allocator
    )
