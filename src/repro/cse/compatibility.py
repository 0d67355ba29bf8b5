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
:class:`ConsumerProfile` is a consumer expressed over those templates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from ..errors import OptimizerError
from ..expr.expressions import AggExpr, ColumnRef, Expr, TableRef, canon_sorted
from ..expr.predicates import (
    EquivalenceClasses,
    column_equalities,
    non_equality_conjuncts,
)
from ..obs import active_registry
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
    regenerated from its equivalence classes plus every applicable
    non-equality conjunct (the normalized SPJ form of §4.1)."""
    classes = EquivalenceClasses()
    for cls in info.classes_within(group.tables):
        members = canon_sorted(cls)
        for member in members[1:]:
            classes.add_equality(members[0], member)
    conjuncts: List[Expr] = list(classes.equality_conjuncts())
    conjuncts.extend(info.noneq_within(group.tables))
    return conjuncts


def consumer_table_map(
    group: Group, body_by_slot: Dict[Slot, TableRef]
) -> Dict[TableRef, TableRef]:
    """Map a consumer's table instances onto the CSE body's instances via
    the shared slot assignment."""
    assignment = slot_assignment(group.tables)
    return {tref: body_by_slot[slot] for tref, slot in assignment.items()}


@dataclass(frozen=True, eq=False)
class ConsumerProfile:
    """One consumer group's normalized SPJG expression in slot space —
    everything Definition 4.1, Algorithm 1 and §4.2 construction read from a
    consumer, derived once per optimization."""

    group: Group
    #: The signature's slot templates, in slot order.
    tables: Tuple[TableRef, ...]
    #: The predicate: ``col = col`` conjuncts regenerated from the classes,
    #: then everything else (local filters, non-equi joins).
    equalities: Tuple[Expr, ...]
    filters: Tuple[Expr, ...]
    classes: EquivalenceClasses
    #: Grouping columns and aggregates (aggregated signatures only).
    group_keys: FrozenSet[ColumnRef]
    aggregates: Tuple[AggExpr, ...]
    #: Columns the consumer's ancestors read (SPJ signatures only).
    required: FrozenSet[ColumnRef]


def consumer_profile(group: Group, info: BlockInfo) -> ConsumerProfile:
    """Express ``group`` over its signature's slot templates."""
    if group.signature is None:
        raise OptimizerError("consumer group has no table signature")
    active_registry().counter("cse.consumer_profiles")
    table_map = slot_tables(group.tables)
    conjuncts = [
        remap_expr(c, table_map) for c in consumer_conjuncts(group, info)
    ]
    group_keys: FrozenSet[ColumnRef] = frozenset()
    aggregates: Tuple[AggExpr, ...] = ()
    required: FrozenSet[ColumnRef] = frozenset()
    if group.signature.has_groupby:
        for out in group.agg_outs:
            if not isinstance(out, AggExpr):
                raise OptimizerError(
                    f"consumer aggregate output {out!r} is not an aggregate"
                )
        group_keys = frozenset(
            remap_expr(key, table_map) for key in group.agg_keys
        )
        aggregates = tuple(
            remap_expr(out, table_map) for out in group.agg_outs
        )
    else:
        required = frozenset().union(
            *(remap_expr(e, table_map).columns() for e in group.required_outputs)
        )
    return ConsumerProfile(
        group=group,
        tables=tuple(sorted(table_map.values(), key=lambda t: t.instance)),
        equalities=tuple(column_equalities(conjuncts)),
        filters=tuple(non_equality_conjuncts(conjuncts)),
        classes=EquivalenceClasses.from_conjuncts(conjuncts),
        group_keys=group_keys,
        aggregates=aggregates,
        required=required,
    )


class ConsumerProfiles:
    """The per-optimization profile cache: one :class:`ConsumerProfile` per
    consumer group, shared by :func:`compatibility_groups`, Algorithm 1 and
    construction."""

    def __init__(self, infos: Dict[str, BlockInfo]) -> None:
        self.infos = infos
        self._profiles: Dict[int, ConsumerProfile] = {}

    def __len__(self) -> int:
        return len(self._profiles)

    def __call__(self, group: Group) -> ConsumerProfile:
        profile = self._profiles.get(group.gid)
        if profile is None:
            profile = self._profiles[group.gid] = consumer_profile(
                group, self.infos[group.block.name]
            )
        return profile


def graph_connected(
    tables: Sequence[TableRef], classes: EquivalenceClasses
) -> bool:
    """Connectivity of the equijoin graph over ``tables`` whose edges come
    from ``classes`` (an edge wherever a class holds columns of two tables)."""
    if len(tables) <= 1:
        return True
    neighbors: Dict[TableRef, Set[TableRef]] = {}
    for cls in classes.classes():
        touched = {member.table_ref for member in cls}
        for table in touched:
            neighbors.setdefault(table, set()).update(touched)
    seen = {tables[0]}
    frontier = [tables[0]]
    while frontier:
        for other in neighbors.get(frontier.pop(), ()):
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return seen.issuperset(tables)


def join_compatible(first: ConsumerProfile, second: ConsumerProfile) -> bool:
    """Definition 4.1 for two consumers: same slots, and the equijoin graph
    of their intersected classes is connected."""
    return first.tables == second.tables and graph_connected(
        first.tables, first.classes.intersect(second.classes)
    )


def derive_compatibility_from_parts(
    part_results: Sequence[Tuple[Set[Slot], bool]], all_slots: Set[Slot]
) -> bool:
    """The subexpression shortcut of Example 3: if join compatibility is
    already known for overlapping sub-slot-sets, the union of their (connected)
    equijoin graphs covering all slots proves compatibility of the whole.

    ``part_results`` holds ``(slots of the part, compatible?)`` pairs. Returns
    True when the compatible parts connect all slots; False means *unknown*
    (fall back to the basic method), matching the paper's fallback rule.
    """
    compatible_parts = [slots for slots, ok in part_results if ok]
    covered: Set[Slot] = set()
    for slots in compatible_parts:
        covered |= slots
    if covered != all_slots:
        return False
    # Union the parts as hyper-edges; check connectivity of the union graph.
    remaining = [set(slots) for slots in compatible_parts]
    if not remaining:
        return False
    component = remaining.pop(0)
    changed = True
    while changed:
        changed = False
        for part in list(remaining):
            if part & component:
                component |= part
                remaining.remove(part)
                changed = True
    return component == all_slots


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
