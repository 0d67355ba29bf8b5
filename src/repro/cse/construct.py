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
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import OptimizerError
from ..expr.expressions import (
    AggExpr,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expr,
    TableRef,
)
from ..expr.predicates import hull_comparison, is_number, range_bounds, range_hulls
from ..logical.blocks import OutputColumn, QueryBlock
from ..optimizer import memo
from ..optimizer.cardinality import CardinalityEstimator, group_count
from ..optimizer.keys import bound_items, close, determined
from ..optimizer.memo import BlockInfo, Group
from .compatibility import (
    ConsumerProfile, ConsumerProfiles, IdSpace, bit_positions, classes_connect, meet,
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
    #: Conjuncts of the (weakened) covering predicate (step 3), body space.
    covering_conjuncts: Tuple[Expr, ...]
    #: The slot-space state this definition was materialised from, until
    #: Step 2 has matched its consumers; ``block.tables`` are the body
    #: instances in slot order. §5.1 matching reads the state's ids, never
    #: the expressions above.
    state: Optional["CoveringState"]
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

#: A covering range bound ``(column id, op, value)``, before it is an ``Expr``.
Bound = Tuple[int, ComparisonOp, float]


def _weaken(
    residual_sets: Sequence[Sequence[int]], space: IdSpace
) -> Tuple[List[int], List[Bound], List[List[int]]]:
    """Weaken ``OR(AND(residual_i))`` (conjunct ids) into covering conjuncts.

    Returns ``(commons, hulls, residuals)``: the conjuncts every consumer
    holds, per-column range hulls across the rest, and ``residuals[i]``,
    consumer i's compensation predicate (its conjuncts minus the commons).
    Soundness: each consumer's predicate implies the covering conjuncts, so
    the CSE contains every row any consumer needs.
    """
    if not residual_sets:
        return [], [], []
    # (a) conjuncts present in every consumer's simplified predicate.
    others = [set(conjuncts) for conjuncts in residual_sets[1:]]
    commons = [
        conjunct for conjunct in dict.fromkeys(residual_sets[0])
        if all(conjunct in other for other in others)
    ]
    shared = set(commons)
    residuals = [[c for c in conjuncts if c not in shared] for conjuncts in residual_sets]
    hulls: List[Bound] = []
    # (b) per-column range hulls across the remaining disjuncts.
    if all(residuals):
        per_consumer_bounds = [
            range_bounds(
                part for part in (space.ranges[c] for c in r) if part and is_number(part[2])
            )
            for r in residuals
        ]
        hulls = range_hulls(per_consumer_bounds, space.canonical(per_consumer_bounds[0]))
    return commons, hulls, residuals


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoveringState:
    """The covering subexpression of a member set, in slot space — what
    Algorithm 1 carries from one merge probe to the next.

    Holds §4.2 steps 1-5 over the members' :class:`IdSpace` ids plus the
    §4.3.3 size estimate, so a probe is integer work: one partition meet, a
    slot flood, and set and float arithmetic over the members' cached ids.
    No ``Expr``, body instance, ``QueryBlock`` or ``BlockInfo`` exists until
    :meth:`materialise`.
    """

    members: Tuple[ConsumerProfile, ...]
    #: Step 1: the meet of the members' classes (column-id masks).
    joint: Tuple[int, ...]
    #: Step 3: the (weakened) covering predicate — conjuncts every member
    #: holds (ids), then range hulls ``(column id, op, value)``.
    commons: Tuple[int, ...]
    hulls: Tuple[Bound, ...]
    #: Steps 4-5: grouping keys (column ids, canonical order) and aggregate
    #: ids, or the SPJ output columns.
    group_keys: Tuple[int, ...]
    aggregates: Tuple[int, ...]
    columns: Tuple[int, ...]
    est_rows: float
    row_width: int

    @property
    def consumer_groups(self) -> List[Group]:
        """The covered consumer groups, in merge order."""
        return [member.group for member in self.members]

    @classmethod
    def trivial(cls, profile: ConsumerProfile) -> Optional["CoveringState"]:
        """The trivial CSE of one consumer: "exactly the same as its only
        consumer" (§4.3)."""
        return _derive((profile,), profile.classes)

    def merged_with(self, profile: ConsumerProfile) -> Optional["CoveringState"]:
        """This state widened to cover ``profile`` too, or None when the
        members would no longer be join compatible (Def 4.1)."""
        if profile.group.signature != self.members[0].group.signature:
            raise OptimizerError("consumers have mismatched signatures")
        return _derive(self.members + (profile,), meet(self.joint, profile.classes))

    def materialise(
        self, cse_id: str, instance_allocator: Callable[[], int]
    ) -> CseDefinition:
        """Step 6: the state as a spoolable ``QueryBlock`` over fresh body
        instances, one per slot, allocated in slot order — the one place ids
        become expressions again."""
        space = self.members[0].space
        columns = space.columns
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

        def to_body(exprs: Iterable[Expr]) -> tuple:
            return tuple(remap_expr(expr, body) for expr in exprs)

        joint_equalities = to_body(
            Comparison(ComparisonOp.EQ, columns[first], columns[cid])
            for first, *rest in (space.canonical(bit_positions(c)) for c in self.joint)
            for cid in rest
        )
        covering = to_body(
            [space.conjuncts[fid] for fid in self.commons]
            + [hull_comparison(columns[cid], op, v) for cid, op, v in self.hulls]
        )
        group_keys = to_body(columns[cid] for cid in self.group_keys)
        aggregates = to_body(space.aggregates[aid] for aid in self.aggregates)
        outputs = tuple(
            OutputColumn(name=f"{prefix}{i}", expr=expr)
            for prefix, exprs in (
                ("k", group_keys),
                ("a", aggregates),
                ("c", to_body(columns[cid] for cid in self.columns)),
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
            covering_conjuncts=covering,
            state=self,
            est_rows=self.est_rows,
            row_width=self.row_width,
        )


def _derive(
    members: Tuple[ConsumerProfile, ...], joint: Tuple[int, ...]
) -> Optional[CoveringState]:
    """§4.2 steps 2-5 and the §4.3.3 estimate for ``members``, given their
    joint classes (step 1); None unless those connect the slots (Def 4.1)."""
    first = members[0]
    space = first.space
    if not classes_connect(joint, space, len(first.tables)):
        return None
    # Step 2: each member's predicate minus the equalities the joint classes
    # imply (an equality's two columns lie inside one class).
    columns_of = space.conjunct_columns
    simplified = [
        [e for e in m.equalities if not any(c & columns_of[e] == columns_of[e] for c in joint)]
        + list(m.filters)
        for m in members
    ]
    # Step 3: the (weakened) covering predicate.
    commons, hulls, residuals = _weaken(simplified, space)
    # Columns the residuals reference — needed in the output (and in the
    # grouping keys for aggregated CSEs) so compensation can run. Step 4:
    # keys = union of member keys + residual columns, and the members'
    # aggregates without repeats; step 5 (SPJ case): the union of columns
    # any member requires.
    needed = 0
    for conjunct in (c for residual in residuals for c in residual):
        needed |= columns_of[conjunct]
    has_groupby = first.group.signature.has_groupby
    for m in members:
        needed |= m.group_keys if has_groupby else m.required
    needed_ids = tuple(space.canonical(bit_positions(needed)))
    group_keys, columns = (needed_ids, ()) if has_groupby else ((), needed_ids)
    aggregates = tuple(dict.fromkeys(a for m in members for a in m.aggregates))
    est_rows, row_width = 0.0, 0
    if space.estimator is not None:
        est_rows, item_rows = _join_rows(first, joint, commons, hulls)
        if has_groupby:
            facts = _slot_facts(first, joint, group_keys)
            groups = _group_count(first, joint, facts, group_keys, est_rows, item_rows)
            added = _identity_key(first, joint, facts, group_keys, item_rows, groups)
            if added:
                group_keys = needed_ids = tuple(
                    space.canonical(bit_positions(needed | added))
                )
                groups = _group_count(first, joint, facts, group_keys, est_rows, item_rows)
            est_rows = groups
        row_width = sum(space.columns[c].data_type.byte_width for c in needed_ids) + sum(
            space.aggregates[a].data_type.byte_width for a in aggregates
        )
    return CoveringState(
        members, joint, tuple(commons), tuple(hulls), group_keys, aggregates,
        columns, est_rows, row_width,
    )


def _join_rows(
    first: ConsumerProfile,
    joint: Tuple[int, ...],
    commons: Sequence[int],
    hulls: Sequence[Bound],
) -> Tuple[float, List[float]]:
    """Estimate the covering join's cardinality without optimizing its body
    (§4.3.3): base rows × class factors × covering selectivity. Returns it
    with each slot's filtered rows. Same float operations in the same order
    as over the covering expressions, so the estimate is bit-equal."""
    space = first.space
    column_slot, column_ndv = space.column_slot, space.column_ndv
    # (touched-slot mask, selectivity) per covering conjunct, in order.
    filters = [(space.conjunct_slots[f], space.selectivity[f]) for f in commons] + [
        (column_slot[cid], space.hull_selectivity(cid, op, value))
        for cid, op, value in hulls
    ]
    rows = 1.0
    item_rows: List[float] = []
    for index, base in enumerate(first.table_rows):
        bit = 1 << index
        for touched, selectivity in filters:
            if touched == bit:
                base *= selectivity
        item_rows.append(max(base, 1.0))
        rows *= item_rows[index]
    for cls in joint:
        ndvs: Dict[int, float] = {}  # per slot: its smallest member NDV
        for cid in bit_positions(cls):
            slot = column_slot[cid]
            ndv = min(column_ndv[cid], item_rows[slot.bit_length() - 1])
            ndvs[slot] = min(ndvs.get(slot, ndv), ndv)
        rows *= CardinalityEstimator.class_factor_for_join(ndvs.values())
    for touched, selectivity in filters:
        if touched & (touched - 1):
            rows *= selectivity
    return max(rows, 1.0), item_rows


def _slot_facts(
    first: ConsumerProfile, joint: Tuple[int, ...], group_keys: Tuple[int, ...]
) -> Tuple[List[int], List[int]]:
    """Each slot's verified key and its columns — key, class member and
    grouping columns — closed under the joint classes, as column-id masks
    (:mod:`repro.optimizer.keys`)."""
    column_slot = first.space.column_slot
    owns = list(first.table_keys)
    for cid in group_keys + tuple(c for cls in joint for c in bit_positions(cls)):
        owns[column_slot[cid].bit_length() - 1] |= 1 << cid
    return list(first.table_keys), [close(own, joint) for own in owns]


def _group_count(
    first: ConsumerProfile,
    joint: Tuple[int, ...],
    facts: Tuple[List[int], List[int]],
    group_keys: Tuple[int, ...],
    rows: float,
    item_rows: Sequence[float],
) -> float:
    """The covering aggregate's group count: the memo's bound
    (:func:`group_count`) over one key per joint class — the first in
    canonical order represents it — and the slots whose rows fix the keys
    (the join rows when the keys fix every slot)."""
    column_ndv = first.space.column_ndv
    ndvs, represented = [], 0
    for key in group_keys:
        key_class = next((cls for cls in joint if cls >> key & 1), 0)
        if not key_class & represented:
            represented |= key_class
            ndvs.append(column_ndv[key])
    keys, reach = facts
    columns = sum(1 << k for k in group_keys)
    order = sorted(range(len(item_rows)), key=lambda i: -item_rows[i])
    kept = bound_items(columns, order, keys, reach)
    fixed, _ = determined(close(columns, joint), keys, reach)
    return group_count(rows, ndvs, [item_rows[i] for i in kept], fixed == (1 << len(keys)) - 1)


def _identity_key(
    first: ConsumerProfile,
    joint: Tuple[int, ...],
    facts: Tuple[List[int], List[int]],
    group_keys: Tuple[int, ...],
    item_rows: Sequence[float],
    groups: float,
) -> int:
    """The key columns (mask) a grouped covering adds so that its top
    aggregate becomes an identity, or 0. Of the slots whose key fixes every
    slot a grouping key comes from, take the one with the fewest filtered
    rows, I. When the estimate is at least ``PREAGG_MIN_COMPRESSION`` ×
    σ(I)'s rows — the aggregate compresses less than the memo requires of
    a pre-aggregation — grouping by I's key as well adds few groups.
    Consumers re-aggregate either way; the body's memo plans the aggregate
    as an identity once its input is unique on the keys."""
    keys, reach = facts
    contributing = 0
    for cid in group_keys:
        contributing |= first.space.column_slot[cid]
    best = None
    for slot, key in enumerate(keys):
        if key and (best is None or item_rows[slot] < item_rows[best]):
            if not contributing & ~determined(close(key, joint), keys, reach)[0]:
                best = slot
    if best is None or groups < memo.PREAGG_MIN_COMPRESSION * item_rows[best]:
        return 0
    return keys[best] & ~sum(1 << k for k in group_keys)


def covering_state(profiles: Sequence[ConsumerProfile]) -> CoveringState:
    """Fold ``profiles`` into one covering state (§4.2 steps 1-5)."""
    if not profiles:
        raise OptimizerError("cannot construct a CSE with no consumers")
    state = CoveringState.trivial(profiles[0])
    for profile in profiles[1:]:
        if state is None:
            break
        state = state.merged_with(profile)
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
    profiles = ConsumerProfiles(infos, estimator)
    return covering_state([profiles(g) for g in consumers]).materialise(
        cse_id, instance_allocator
    )
