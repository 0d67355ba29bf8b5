"""Join compatibility (paper §4.1, Definition 4.1).

Two SPJ expressions over the same set of tables are *join compatible* when
the equijoin graph built from the **intersection of their column equivalence
classes** is connected. Join-compatible expressions can share a covering
subexpression without resorting to Cartesian products.

Because each consumer references its own table *instances*, consumers are
first mapped into a common *slot space*: slot ``(name, k)`` is the k-th
occurrence of base table ``name`` among the expression's instances (sorted),
and every slot has one instance-free template :class:`TableRef`. For
self-join-free queries — every workload in the paper — the mapping is exact;
with self-joins it is the documented greedy positional assignment. A
:class:`ConsumerProfile` is a consumer expressed over those templates, as
dense ids of one :class:`IdSpace`: its classes are a partition of column ids
and Definition 4.1 is a partition meet plus a flood over slot bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from ..errors import OptimizerError
from ..expr.expressions import (
    AggExpr,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expr,
    TableRef,
    canon_key,
)
from ..expr.predicates import (
    column_equalities,
    non_equality_conjuncts,
    range_parts,
)
from ..optimizer.cardinality import CardinalityEstimator
from ..optimizer.memo import BlockInfo, Group

Slot = Tuple[str, int]


def slot_assignment(tables: Iterable[TableRef]) -> Dict[TableRef, Slot]:
    """Assign each table instance a (name, occurrence) slot."""
    assignment: Dict[TableRef, Slot] = {}
    counters: Dict[str, int] = {}
    for table in sorted(tables):
        name = table.signature_name
        occurrence = counters.get(name, 0)
        counters[name] = occurrence + 1
        assignment[table] = (name, occurrence)
    return assignment


def slot_tables(tables: Iterable[TableRef]) -> Dict[TableRef, TableRef]:
    """Map each table instance onto its slot's instance-free *template*: the
    k-th slot in sorted order becomes instance ``k`` under the alias
    ``<name><occurrence>``. Expressions of one table signature share their
    templates, so once remapped their predicates, classes and keys compare
    directly — no CSE-body instances needed."""
    assignment = slot_assignment(tables)
    ordinal = {slot: k for k, slot in enumerate(sorted(assignment.values()))}
    return {
        table: TableRef(
            table=table.table,
            instance=ordinal[slot],
            alias=f"{slot[0]}{slot[1]}",
            is_delta=table.is_delta,
            storage_name=table.storage_name,
        )
        for table, slot in assignment.items()
    }


def remap_expr(expr: Expr, table_map: Dict[TableRef, TableRef]) -> Expr:
    """Rewrite every column reference per ``table_map``."""
    mapping: Dict[Expr, Expr] = {}
    for col in expr.columns():
        target = table_map.get(col.table_ref)
        if target is not None:
            mapping[col] = ColumnRef(target, col.column, col.data_type)
    return expr.substitute(mapping)


def consumer_conjuncts(group: Group, info: BlockInfo) -> List[Expr]:
    """The consumer's full predicate over its tables: equality conjuncts
    regenerated from its equivalence classes (each class's first member
    equated with the rest) plus every applicable non-equality conjunct (the
    normalized SPJ form of §4.1)."""
    conjuncts: List[Expr] = [
        Comparison(ComparisonOp.EQ, members[0], member)
        for members in info.classes_within(group.tables)
        for member in members[1:]
    ]
    conjuncts.extend(info.noneq_within(group.tables))
    return conjuncts


def bit_positions(mask: int) -> List[int]:
    """The set bits of ``mask`` as positions, lowest first."""
    positions = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    return positions


class IdSpace:
    """Dense ids for one optimization's slot-template columns, conjuncts and
    aggregates, minted in first-seen order — consumers of one signature that
    hold the same template column, conjunct or aggregate share its id — and
    the per-id facts merge probes read. The ``Expr`` behind an id is read
    back only when a candidate is materialised (§4.2 step 6)."""

    def __init__(self, estimator: Optional[CardinalityEstimator]) -> None:
        self.estimator = estimator
        #: Column and aggregate ids, and conjunct ids, by template ``Expr``.
        self._ids: Dict[Expr, int] = {}
        self._conjunct_ids: Dict[Expr, int] = {}
        self.columns: List[ColumnRef] = []
        self.aggregates: List[AggExpr] = []
        self.conjuncts: List[Expr] = []
        #: Per column id: its slot's bit, canonical sort key and NDV.
        self.column_slot: List[int] = []
        self.column_rank: List[str] = []
        self.column_ndv: List[float] = []
        #: Per conjunct id: column-id mask, touched-slot mask, selectivity,
        #: and ``(column id, op, value)`` when it is ``column op literal``.
        self.conjunct_columns: List[int] = []
        self.conjunct_slots: List[int] = []
        self.selectivity: List[float] = []
        self.ranges: List[Optional[Tuple[int, ComparisonOp, Any]]] = []
        self._hull_selectivity: Dict[Tuple[int, ComparisonOp, float], float] = {}

    def column_id(self, column: ColumnRef) -> int:
        """The id of a slot-template column."""
        cid = self._ids.get(column)
        if cid is None:
            cid = self._ids[column] = len(self.columns)
            self.columns.append(column)
            self.column_slot.append(1 << column.table_ref.instance)
            self.column_rank.append(canon_key(column))
            if self.estimator is not None:
                self.column_ndv.append(self.estimator.column_ndv(column))
        return cid

    def columns_mask(self, expr: Expr) -> int:
        """The column-id mask of an expression's columns."""
        return sum({1 << self.column_id(column) for column in expr.columns()})

    def conjunct_id(self, conjunct: Expr) -> int:
        """The id of a slot-template conjunct."""
        fid = self._conjunct_ids.get(conjunct)
        if fid is None:
            fid = self._conjunct_ids[conjunct] = len(self.conjuncts)
            self.conjuncts.append(conjunct)
            columns = self.columns_mask(conjunct)
            self.conjunct_columns.append(columns)
            self.conjunct_slots.append(
                sum({self.column_slot[cid] for cid in bit_positions(columns)})
            )
            if self.estimator is not None:
                self.selectivity.append(self.estimator.conjunct_selectivity(conjunct))
            part = range_parts(conjunct)
            self.ranges.append(part and (self.column_id(part[0]), part[1], part[2]))
        return fid

    def aggregate_id(self, aggregate: AggExpr) -> int:
        """The id of a slot-template aggregate."""
        aid = self._ids.get(aggregate)
        if aid is None:
            aid = self._ids[aggregate] = len(self.aggregates)
            self.aggregates.append(aggregate)
        return aid

    def canonical(self, column_ids: Iterable[int]) -> List[int]:
        """Column ids in the canonical order of their columns."""
        return sorted(column_ids, key=self.column_rank.__getitem__)

    def hull_selectivity(self, cid: int, op: ComparisonOp, value: float) -> float:
        """The selectivity of ``column op value``, a covering range bound."""
        key = (cid, op, value)
        if key not in self._hull_selectivity:
            self._hull_selectivity[key] = self.estimator.column_literal_selectivity(
                self.columns[cid], op, value
            )
        return self._hull_selectivity[key]


def meet(first: Tuple[int, ...], second: Tuple[int, ...]) -> Tuple[int, ...]:
    """Def 4.1's class-wise intersection of two partitions of column ids
    (tuples of class masks): each pair of classes, one from each side, with
    two or more common members is a class of the result, in (first class,
    second class) order."""
    return tuple(
        common for mine in first for theirs in second
        if (common := mine & theirs) & (common - 1)
    )


def classes_connect(classes: Tuple[int, ...], space: IdSpace, slot_count: int) -> bool:
    """Whether the equijoin graph of ``classes`` connects all slots: a flood
    from slot 0 over each class's touched-slot mask."""
    edges = [sum({space.column_slot[c] for c in bit_positions(cls)}) for cls in classes]
    full = (1 << slot_count) - 1
    reached, grown = 1, True
    while grown and reached != full:
        grown = False
        for edge in edges:
            if edge & reached and edge & ~reached:
                reached |= edge
                grown = True
    return reached == full


@dataclass(frozen=True, eq=False)
class ConsumerProfile:
    """One consumer group's normalized SPJG expression in slot space —
    everything Definition 4.1, Algorithm 1 and §4.2 construction read from a
    consumer, derived once per optimization as ids of its :class:`IdSpace`."""

    group: Group
    space: IdSpace
    #: Each of the group's table instances -> its slot's template.
    template_map: Dict[TableRef, TableRef]
    #: The signature's slot templates, in slot order (slot i is bit i), the
    #: stored rows of each, and each one's verified key (column-id mask, 0
    #: for none; :meth:`CardinalityEstimator.key_columns`).
    tables: Tuple[TableRef, ...]
    table_rows: Tuple[float, ...]
    table_keys: Tuple[int, ...]
    #: The equivalence classes: one column-id mask per class.
    classes: Tuple[int, ...]
    #: The predicate as conjunct ids: ``col = col`` conjuncts regenerated
    #: from the classes, then everything else (local filters, non-equi joins).
    equalities: Tuple[int, ...]
    filters: Tuple[int, ...]
    #: The consumer's own conjuncts behind ``equalities + filters``, in its
    #: column space (what a match's residual is made of).
    conjuncts: Tuple[Expr, ...]
    #: Grouping columns (mask) and aggregate ids (aggregated signatures), or
    #: the columns the consumer's ancestors read (mask; SPJ signatures).
    group_keys: int
    aggregates: Tuple[int, ...]
    required: int


class ConsumerProfiles:
    """The per-optimization profile cache: one :class:`ConsumerProfile` per
    consumer group over one :class:`IdSpace`, shared by
    :func:`compatibility_groups`, Algorithm 1, construction and §5.1
    matching (which also profiles the candidate-body groups it probes)."""

    def __init__(
        self, infos: Dict[str, BlockInfo], estimator: Optional[CardinalityEstimator] = None
    ) -> None:
        self.infos = infos
        self.space = IdSpace(estimator)
        self._profiles: Dict[int, ConsumerProfile] = {}
        #: The template map and predicate fields per (block, table instances):
        #: the join and aggregate groups over one instance set share them.
        self._predicates: Dict[Tuple[str, FrozenSet[TableRef]], tuple] = {}

    def __len__(self) -> int:
        return len(self._profiles)

    def __call__(self, group: Group) -> ConsumerProfile:
        profile = self._profiles.get(group.gid)
        if profile is None:
            profile = self._profiles[group.gid] = self._profile(group)
        return profile

    def _profile(self, group: Group) -> ConsumerProfile:
        """Express ``group`` over its signature's slot templates."""
        if group.signature is None:
            raise OptimizerError("consumer group has no table signature")
        space = self.space
        predicate = self._predicate(group)
        table_map = predicate[0]

        def mask(exprs: Iterable[Expr]) -> int:
            columns = 0
            for expr in exprs:
                columns |= space.columns_mask(remap_expr(expr, table_map))
            return columns

        if not group.signature.has_groupby:
            return ConsumerProfile(
                group, space, *predicate, 0, (), mask(group.required_outputs)
            )
        for out in group.agg_outs:
            if not isinstance(out, AggExpr):
                raise OptimizerError(
                    f"consumer aggregate output {out!r} is not an aggregate"
                )
        aggregates = tuple(
            space.aggregate_id(remap_expr(out, table_map)) for out in group.agg_outs
        )
        return ConsumerProfile(
            group, space, *predicate, mask(group.agg_keys), aggregates, 0
        )

    def _predicate(self, group: Group) -> tuple:
        """``(template map, tables, table rows, table keys, classes,
        equalities, filters, conjuncts)`` of ``group``, cached per block and
        instance set."""
        key = (group.block.name, group.tables)
        if key not in self._predicates:
            space = self.space
            table_map = slot_tables(group.tables)
            # Equalities come first, so the consumer's conjunct order is
            # that of ``equalities + filters``.
            own = consumer_conjuncts(group, self.infos[group.block.name])
            conjuncts = [remap_expr(c, table_map) for c in own]
            equalities = column_equalities(conjuncts)
            # Each class's first member is equated with the rest, so the
            # left side names the class.
            classes: Dict[Expr, int] = {}
            for equality in equalities:
                classes[equality.left] = classes.get(
                    equality.left, space.columns_mask(equality.left)
                ) | space.columns_mask(equality.right)
            tables = tuple(sorted(table_map.values(), key=lambda t: t.instance))
            estimator = space.estimator
            self._predicates[key] = (
                table_map,
                tables,
                tuple(map(estimator.table_rows, tables)) if estimator is not None else (),
                tuple(
                    sum(1 << space.column_id(c) for c in estimator.key_columns(t))
                    for t in tables
                ) if estimator is not None else (),
                tuple(classes.values()),
                tuple(map(space.conjunct_id, equalities)),
                tuple(map(space.conjunct_id, non_equality_conjuncts(conjuncts))),
                tuple(own),
            )
        return self._predicates[key]


def join_compatible(first: ConsumerProfile, second: ConsumerProfile) -> bool:
    """Definition 4.1 for two consumers: same slots, and the equijoin graph
    of their intersected classes is connected."""
    return first.tables == second.tables and classes_connect(
        meet(first.classes, second.classes), first.space, len(first.tables)
    )


def compatibility_groups(
    groups: Sequence[Group], profiles: ConsumerProfiles
) -> List[List[Group]]:
    """Partition one signature bucket into join-compatible sets (§4.2).

    Members of a set are mutually join compatible and reference pairwise
    disjoint table instances (so they can all appear in one final plan).
    Greedy clique cover, deterministic by group id.
    """
    clusters: List[List[Group]] = []
    for group in sorted(groups, key=lambda g: g.gid):
        placed = False
        for cluster in clusters:
            ok = True
            for member in cluster:
                if member.tables & group.tables:
                    ok = False
                    break
                if (
                    member.kind == "agg"
                    and group.kind == "agg"
                    and member.block is group.block
                ):
                    # Two pre-aggregations of the same block can never appear
                    # in one plan (the memo joins at most one pre-aggregated
                    # input), so they cannot share a spool.
                    ok = False
                    break
                if not join_compatible(profiles(member), profiles(group)):
                    ok = False
                    break
            if ok:
                cluster.append(group)
                placed = True
                break
        if not placed:
            clusters.append([group])
    return [c for c in clusters if len(c) >= 2]
