"""The memo: groups, group expressions, and logical exploration.

Following the Cascades/Volcano framework the paper builds on (§2.1), the memo
is a DAG of *groups*; each group holds a set of logically equivalent *group
expressions* that reference their inputs by group. We materialize the full
logical search space for every SPJG block directly:

* one **join group** per connected subset of the block's join graph, with one
  :class:`JoinExpr` per partition of the subset into two connected halves
  (the same space a Cascades optimizer reaches via commute/associate rules);
* one **aggregation group** per (covered tables, keys, outputs) triple. The
  block's final aggregation group holds a direct implementation over the full
  join plus, when the eager group-by rule applies, combine-implementations
  over joins that contain a pre-aggregated input (:class:`AggItem`). Those
  pre-aggregation groups are precisely where sharing opportunities such as
  the paper's E4/E5 (Figure 6) come from.

Every group carries its table signature (§3) computed incrementally via the
rules of Figure 2, an estimated cardinality, and required-output columns.
After normal optimization each group also carries its cost bounds, which the
candidate-generation heuristics (§4.3) consume.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..errors import OptimizerError
from ..expr.expressions import (
    ColumnRef,
    Comparison,
    Expr,
    TableRef,
    canon_key,
    canon_sorted,
)
from ..expr.predicates import (
    EquivalenceClasses,
    non_equality_conjuncts,
    split_conjuncts,
)
from ..logical.blocks import QueryBlock
from ..cse.signature import TableSignature
from .aggs import AggCompute, combine_computes, decomposable_over, direct_computes, partial_computes
from .cardinality import CardinalityEstimator
from .options import OptimizerOptions

#: Pre-aggregation is explored for connected table subsets of at most this
#: size (a search-space guard for very large joins).
PREAGG_MAX_TABLES = 5

#: Explore a pre-aggregation only when its estimated group count is at most
#: this fraction of its input cardinality (count-only pre-aggregates are
#: allowed when they compress, which the stacked-CSE experiment of §6.2
#: needs). Non-compressing pre-aggregates never win and would flood the
#: signature table with spurious sharing opportunities (Figure 6 contains
#: γ(O⋈L) but not the non-compressing γ(C⋈O)).
PREAGG_MIN_COMPRESSION = 0.7


# ---------------------------------------------------------------------------
# Join items
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AggItem:
    """A pre-aggregated join input: γ_keys;partials over ``source`` tables."""

    source: FrozenSet[TableRef]
    keys: Tuple[ColumnRef, ...]
    partials: Tuple[AggCompute, ...]

    def __repr__(self) -> str:
        tables = ",".join(sorted(t.display_name for t in self.source))
        return f"γ[{tables}]"


JoinItem = Union[TableRef, AggItem]


def item_tables(item: JoinItem) -> FrozenSet[TableRef]:
    """The base-table instances one join item covers."""
    if isinstance(item, TableRef):
        return frozenset([item])
    return item.source


def items_tables(items: Iterable[JoinItem]) -> FrozenSet[TableRef]:
    """Union of base tables over several join items."""
    result: Set[TableRef] = set()
    for item in items:
        result.update(item_tables(item))
    return frozenset(result)


# ---------------------------------------------------------------------------
# Group expressions
# ---------------------------------------------------------------------------


class GroupExpression:
    """Base class; concrete expressions list their input groups."""

    def input_groups(self) -> Tuple["Group", ...]:
        return ()


@dataclass
class ScanExpr(GroupExpression):
    """Access one base table instance with its pushed-down local filters."""

    table_ref: TableRef
    conjuncts: Tuple[Expr, ...]

    def __repr__(self) -> str:
        return f"Scan({self.table_ref!r}, filters={len(self.conjuncts)})"


@dataclass
class JoinExpr(GroupExpression):
    """Join two child groups. ``hash_keys`` pairs (left, right) columns, one
    per equivalence class spanning the two sides; ``residual`` holds
    non-equality conjuncts that become applicable at this join."""

    left: "Group"
    right: "Group"
    hash_keys: Tuple[Tuple[ColumnRef, ColumnRef], ...]
    residual: Tuple[Expr, ...]

    def input_groups(self) -> Tuple["Group", ...]:
        return (self.left, self.right)

    def __repr__(self) -> str:
        return f"Join(g{self.left.gid}, g{self.right.gid})"


@dataclass
class AggImplExpr(GroupExpression):
    """Aggregate an input group: grouping keys + aggregate computations.

    Used for final aggregations (direct computes), combine steps above a
    pre-aggregated join, and the pre-aggregations themselves (partials).
    """

    input_group: "Group"
    keys: Tuple[ColumnRef, ...]
    computes: Tuple[AggCompute, ...]

    def input_groups(self) -> Tuple["Group", ...]:
        return (self.input_group,)

    def __repr__(self) -> str:
        return f"Agg(g{self.input_group.gid}, keys={len(self.keys)})"


@dataclass
class RootExpr(GroupExpression):
    """The dummy batch root tying all query tops together (§2, footnote 1)."""

    children: Tuple["Group", ...]

    def input_groups(self) -> Tuple["Group", ...]:
        return self.children

    def __repr__(self) -> str:
        return f"Root({[g.gid for g in self.children]})"


# ---------------------------------------------------------------------------
# Groups
# ---------------------------------------------------------------------------


@dataclass
class Group:
    """A memo group: logically equivalent expressions plus derived info."""

    gid: int
    kind: str  # "join" | "agg" | "root"
    block: Optional[QueryBlock]
    part_id: str
    items: FrozenSet[JoinItem]
    tables: FrozenSet[TableRef]
    exprs: List[GroupExpression] = field(default_factory=list)
    signature: Optional[TableSignature] = None
    est_rows: float = 0.0
    #: Columns (or computed expressions) this group must output for ancestors.
    required_outputs: Tuple[Expr, ...] = ()
    row_width: int = 0
    #: Cost bounds established during normal optimization. In this exhaustive
    #: optimizer both bounds equal the optimal cost; they are kept separate
    #: because the paper's heuristics are phrased in terms of bounds.
    lower_bound: Optional[float] = None
    upper_bound: Optional[float] = None
    #: For "agg" groups: grouping keys and output aggregate expressions.
    agg_keys: Tuple[ColumnRef, ...] = ()
    agg_outs: Tuple[Expr, ...] = ()

    def add_expr(self, expr: GroupExpression) -> None:
        """Append one group expression."""
        self.exprs.append(expr)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        names = ",".join(sorted(repr(i) for i in self.items))
        return f"Group(g{self.gid} {self.kind} [{names}])"


# ---------------------------------------------------------------------------
# Per-block derived info
# ---------------------------------------------------------------------------


class BlockInfo:
    """Derived structures for one block: equivalence classes, conjunct
    assignment, and the equijoin graph."""

    def __init__(self, block: QueryBlock) -> None:
        self.block = block
        self.classes: EquivalenceClasses = block.equivalence_classes()
        self.noneq: List[Expr] = non_equality_conjuncts(block.conjuncts)
        self.required = block.required_columns()
        # Join graph over table instances.
        self.edges: Set[FrozenSet[TableRef]] = set()
        for cls in self.classes.classes():
            tables = sorted({m.table_ref for m in cls if isinstance(m, ColumnRef)})
            for a, b in itertools.combinations(tables, 2):
                self.edges.add(frozenset((a, b)))
        for conjunct in self.noneq:
            tables = sorted(conjunct.tables())
            for a, b in itertools.combinations(tables, 2):
                self.edges.add(frozenset((a, b)))
        self._bridge_components()
        self._all_classes = self.classes.classes()
        self._classes_cache: Dict[FrozenSet[TableRef], List[FrozenSet[ColumnRef]]] = {}
        self._neighbors: Dict[TableRef, Set[TableRef]] = {}
        for edge in self.edges:
            pair = sorted(edge)
            if len(pair) == 2:
                a, b = pair
                self._neighbors.setdefault(a, set()).add(b)
                self._neighbors.setdefault(b, set()).add(a)

    def tables_adjacent(self, first: TableRef, second: TableRef) -> bool:
        """Whether two instances share a join-graph edge."""
        return second in self._neighbors.get(first, ())

    def _bridge_components(self) -> None:
        """Connect disconnected components with synthetic (cartesian) edges
        so subset enumeration covers the whole block."""
        tables = sorted(self.block.tables)
        if not tables:
            return
        seen: Set[TableRef] = set()
        components: List[List[TableRef]] = []
        for table in tables:
            if table in seen:
                continue
            component = [table]
            seen.add(table)
            frontier = [table]
            while frontier:
                current = frontier.pop()
                for edge in self.edges:
                    if current in edge:
                        other = next(iter(edge - {current}))
                        if other not in seen:
                            seen.add(other)
                            component.append(other)
                            frontier.append(other)
            components.append(component)
        for first, second in zip(components, components[1:]):
            self.edges.add(frozenset((first[0], second[0])))

    # -- conjunct assignment ----------------------------------------------

    def conjunct_tables(self, conjunct: Expr) -> FrozenSet[TableRef]:
        """Table instances a conjunct references."""
        return conjunct.tables()

    def noneq_within(self, tables: FrozenSet[TableRef]) -> List[Expr]:
        """Non-equality conjuncts fully inside ``tables``."""
        return [
            c for c in self.noneq if self.conjunct_tables(c) <= tables
        ]

    def local_conjuncts(self, table: TableRef) -> List[Expr]:
        """Single-table non-equality conjuncts of one instance."""
        singleton = frozenset([table])
        return [c for c in self.noneq if self.conjunct_tables(c) == singleton]

    def classes_within(self, tables: FrozenSet[TableRef]) -> List[FrozenSet[ColumnRef]]:
        """Equivalence classes restricted to ``tables`` (>= 2 members)."""
        cached = self._classes_cache.get(tables)
        if cached is not None:
            return cached
        restricted: List[FrozenSet[ColumnRef]] = []
        for cls in self._all_classes:
            members = frozenset(
                m for m in cls
                if isinstance(m, ColumnRef) and m.table_ref in tables
            )
            if len(members) >= 2:
                restricted.append(members)
        self._classes_cache[tables] = restricted
        return restricted

    def spanning_columns(self, subset: FrozenSet[TableRef]) -> Set[ColumnRef]:
        """Columns of ``subset`` referenced by conjuncts that span the subset
        boundary — the join columns a pre-aggregation of ``subset`` must keep."""
        rest = self.block.table_set - subset
        needed: Set[ColumnRef] = set()
        for cls in self.classes.classes():
            members = [m for m in cls if isinstance(m, ColumnRef)]
            inside = [m for m in members if m.table_ref in subset]
            outside = [m for m in members if m.table_ref in rest]
            if inside and outside:
                needed.update(inside)
        for conjunct in self.noneq:
            tables = self.conjunct_tables(conjunct)
            if tables & subset and tables & rest:
                needed.update(
                    c for c in conjunct.columns() if c.table_ref in subset
                )
        return needed


# ---------------------------------------------------------------------------
# The memo
# ---------------------------------------------------------------------------


class Memo:
    """Holds all groups for a batch plus the group DAG."""

    def __init__(
        self, estimator: CardinalityEstimator, options: OptimizerOptions
    ) -> None:
        self.estimator = estimator
        self.options = options
        self._groups_by_key: Dict[object, Group] = {}
        self.groups: List[Group] = []
        self.block_infos: Dict[str, BlockInfo] = {}
        self.block_tops: Dict[str, Group] = {}
        self.root: Optional[Group] = None
        #: (group, part_id) registrations in creation order, consumed by the
        #: CSE manager (Step 1 of the paper's architecture).
        self.signature_log: List[Group] = []

    # -- group creation -----------------------------------------------------

    def _new_group(
        self,
        key: object,
        kind: str,
        block: Optional[QueryBlock],
        part_id: str,
        items: FrozenSet[JoinItem],
    ) -> Group:
        group = Group(
            gid=len(self.groups),
            kind=kind,
            block=block,
            part_id=part_id,
            items=items,
            tables=items_tables(items),
        )
        self.groups.append(group)
        self._groups_by_key[key] = group
        return group

    # -- block construction ---------------------------------------------------

    def build_block(self, block: QueryBlock, part_id: str) -> Group:
        """Explore one SPJG block; returns its top group."""
        if block.name in self.block_infos:
            raise OptimizerError(f"block {block.name!r} built twice")
        info = BlockInfo(block)
        self.block_infos[block.name] = info

        base_items: Tuple[JoinItem, ...] = tuple(sorted(block.tables))
        subsets = self._connected_subsets(base_items, info)
        for subset in subsets:
            self._build_join_group(frozenset(subset), info, part_id)

        full_set: FrozenSet[JoinItem] = frozenset(base_items)
        top = self._groups_by_key[("join", block.name, full_set)]

        if block.has_groupby:
            final = self._build_final_agg_group(info, part_id)
            top = final
        self.block_tops[block.name] = top
        return top

    def _build_final_agg_group(self, info: BlockInfo, part_id: str) -> Group:
        block = info.block
        full_tables = block.table_set
        key = (
            "agg",
            block.name,
            full_tables,
            tuple(canon_sorted(block.group_keys)),
            tuple(canon_sorted(block.aggregates)),
        )
        group = self._new_group(key, "agg", block, part_id, frozenset(block.tables))
        group.agg_keys = block.group_keys
        group.agg_outs = tuple(block.aggregates)
        full_join = self._groups_by_key[("join", block.name, frozenset(block.tables))]
        group.add_expr(
            AggImplExpr(full_join, block.group_keys, direct_computes(block.aggregates))
        )
        group.est_rows = self.estimator.group_rows(
            full_join.est_rows,
            self._key_representatives(info, block.group_keys),
        )
        group.required_outputs = tuple(block.group_keys) + tuple(block.aggregates)
        group.row_width = self.estimator.width_of(group.required_outputs)
        group.signature = self._agg_signature(frozenset(block.tables))
        self.signature_log.append(group)

        if self.options.enable_preagg:
            self._explore_preaggregation(info, part_id, group)
        return group

    def _explore_preaggregation(
        self, info: BlockInfo, part_id: str, final_group: Group
    ) -> None:
        """The eager group-by rule: for each connected subset over which the
        aggregates decompose, create the pre-aggregation group, join groups
        over the mixed item set, and a combine implementation of the final
        aggregation."""
        block = info.block
        all_tables = block.table_set
        base_items: Tuple[JoinItem, ...] = tuple(sorted(block.tables))
        if len(base_items) < 2:
            return
        for subset_items in self._connected_subsets(base_items, info):
            subset = frozenset(subset_items)
            if len(subset) >= len(all_tables):
                continue  # pre-aggregating everything IS the final aggregation
            if len(subset) > PREAGG_MAX_TABLES:
                continue
            if not decomposable_over(block.aggregates, subset):
                continue
            partials = partial_computes(block.aggregates, subset)
            if not partials:
                continue
            keys = self._preagg_keys(info, subset)
            input_join = self._groups_by_key[
                ("join", block.name, frozenset(subset))
            ]
            group_count = self.estimator.group_rows(
                input_join.est_rows,
                self._key_representatives(info, keys),
                )
            if group_count > PREAGG_MIN_COMPRESSION * max(
                input_join.est_rows, 1.0
            ):
                continue  # non-compressing pre-aggregation: not useful
            agg_item = AggItem(source=subset, keys=keys, partials=partials)
            preagg_group = self._build_preagg_group(info, part_id, agg_item)
            # A pre-aggregation that doesn't reduce cardinality is still a
            # legal alternative; cost-based choice handles it.
            mixed_top = self._build_mixed_joins(info, part_id, agg_item)
            if mixed_top is None:
                continue
            final_group.add_expr(
                AggImplExpr(
                    mixed_top,
                    block.group_keys,
                    combine_computes(block.aggregates, subset),
                )
            )

    @staticmethod
    def _key_representatives(
        info: BlockInfo, keys: Sequence[ColumnRef]
    ) -> Tuple[ColumnRef, ...]:
        """One key per equivalence class: keys known equal (e.g. both sides
        of an equijoin kept as pre-aggregation keys) must not multiply the
        group-count domain."""
        chosen: List[ColumnRef] = []
        for key in canon_sorted(keys):
            if any(info.classes.same_class(key, kept) for kept in chosen):
                continue
            chosen.append(key)
        return tuple(chosen)

    def _preagg_keys(
        self, info: BlockInfo, subset: FrozenSet[TableRef]
    ) -> Tuple[ColumnRef, ...]:
        keys: Set[ColumnRef] = {
            k for k in info.block.group_keys if k.table_ref in subset
        }
        keys.update(info.spanning_columns(subset))
        return tuple(canon_sorted(keys))

    def _build_preagg_group(
        self, info: BlockInfo, part_id: str, item: AggItem
    ) -> Group:
        block = info.block
        outs = tuple(canon_sorted(p.out for p in item.partials))
        key = (
            "agg",
            block.name,
            item.source,
            tuple(canon_sorted(item.keys)),
            outs,
        )
        existing = self._groups_by_key.get(key)
        if existing is not None:
            return existing
        group = self._new_group(key, "agg", block, part_id, frozenset([item]))
        group.agg_keys = item.keys
        group.agg_outs = outs
        input_join = self._groups_by_key[("join", block.name, frozenset(item.source))]
        group.add_expr(AggImplExpr(input_join, item.keys, item.partials))
        group.est_rows = self.estimator.group_rows(
            input_join.est_rows,
            self._key_representatives(info, item.keys),
        )
        group.required_outputs = tuple(item.keys) + tuple(p.out for p in item.partials)
        group.row_width = self.estimator.width_of(group.required_outputs)
        group.signature = self._agg_signature(item.source)
        self.signature_log.append(group)
        self._nest_preaggregation(info, group, item)
        return group

    def _nest_preaggregation(
        self, info: BlockInfo, group: Group, item: AggItem
    ) -> None:
        """Combine-implementations of a pre-aggregation over *deeper*
        pre-aggregations: ``γ(S) = γ-combine(join(γ(S'), S∖S'))``.

        This mirrors what repeated rule application yields in a Cascades
        memo and is what makes a narrower aggregated group a memo-DAG
        descendant of the wider one — the structural fact Definition 4.2's
        containment check relies on (paper Example 9)."""
        block = info.block
        outer_aggs = [p.out for p in item.partials]
        base_items: Tuple[JoinItem, ...] = tuple(sorted(item.source))
        if len(base_items) < 2:
            return
        for subset_items in self._connected_subsets(base_items, info):
            inner_source = frozenset(subset_items)
            if len(inner_source) >= len(item.source):
                continue
            if not decomposable_over(outer_aggs, inner_source):
                continue
            inner_partials = partial_computes(outer_aggs, inner_source)
            if not inner_partials:
                continue
            inner_keys = self._preagg_keys(info, inner_source)
            inner_item = AggItem(
                source=inner_source, keys=inner_keys, partials=inner_partials
            )
            inner_group = self._agg_item_group(inner_item, info)
            if inner_group is None:
                continue  # only reuse pre-aggregations the block explores
            mixed = frozenset({inner_item} | (item.source - inner_source))
            mixed_join = self._groups_by_key.get(("join", block.name, mixed))
            if mixed_join is None:
                continue
            try:
                computes = combine_computes(outer_aggs, inner_source)
            except OptimizerError:
                continue
            group.add_expr(AggImplExpr(mixed_join, item.keys, computes))

    def _build_mixed_joins(
        self, info: BlockInfo, part_id: str, item: AggItem
    ) -> Optional[Group]:
        """Join groups over {AggItem} ∪ (remaining tables); returns the group
        covering everything, or None when the block has no remaining tables
        (the caller then has nothing to combine)."""
        block = info.block
        rest = tuple(sorted(block.table_set - item.source))
        mixed_items: Tuple[JoinItem, ...] = (item,) + rest
        if not rest:
            return None
        for subset in self._connected_subsets(mixed_items, info):
            subset_f = frozenset(subset)
            if item not in subset_f or len(subset_f) < 2:
                continue  # pure-table subsets exist; {item} is the agg group
            self._build_join_group(subset_f, info, part_id)
        return self._groups_by_key.get(("join", block.name, frozenset(mixed_items)))

    # -- join groups -----------------------------------------------------------

    def _build_join_group(
        self, items: FrozenSet[JoinItem], info: BlockInfo, part_id: str
    ) -> Group:
        block = info.block
        key = ("join", block.name, items)
        existing = self._groups_by_key.get(key)
        if existing is not None:
            return existing
        group = self._new_group(key, "join", block, part_id, items)
        tables = group.tables
        agg_items = [i for i in items if isinstance(i, AggItem)]

        # Required outputs: block-required columns of covered tables, except
        # that columns folded inside a pre-aggregation are replaced by the
        # pre-aggregation's keys and partial outputs.
        hidden: Set[TableRef] = set()
        extra: List[Expr] = []
        for agg_item in agg_items:
            hidden.update(agg_item.source)
            extra.extend(agg_item.keys)
            extra.extend(p.out for p in agg_item.partials)
        required: List[Expr] = [
            c for c in canon_sorted(info.required)
            if c.table_ref in tables and c.table_ref not in hidden
        ]
        seen: Set[Expr] = set(required)
        for expr in extra:
            if expr not in seen:
                required.append(expr)
                seen.add(expr)
        group.required_outputs = tuple(required)
        group.row_width = self.estimator.width_of(group.required_outputs)

        # Signature: join of plain tables => [F; names]; anything involving a
        # pre-aggregated input has no signature (Figure 2 "other cases").
        if not agg_items:
            if len(items) == 1:
                table_ref = next(iter(items))
                assert isinstance(table_ref, TableRef)
                group.signature = TableSignature(
                    False, (table_ref.signature_name,)
                )
            else:
                group.signature = TableSignature.of_tables(
                    (t for t in tables), has_groupby=False
                )
            self.signature_log.append(group)

        # Cardinality.
        ordered = canon_sorted(items)
        group.est_rows = self._estimate_join_rows(ordered, info)

        # Expressions.
        if len(items) == 1:
            item = ordered[0]
            if isinstance(item, TableRef):
                conjuncts = tuple(info.local_conjuncts(item))
                conjuncts = conjuncts + tuple(
                    self._single_table_equalities(item, info)
                )
                group.add_expr(ScanExpr(item, conjuncts))
            # Single AggItem groups are aggregate groups, never join groups.
            return group

        anchor = ordered[0]
        for mask in range(0, 2 ** (len(ordered) - 1)):
            left_items = {anchor}
            for position, item in enumerate(ordered[1:]):
                if mask & (1 << position):
                    left_items.add(item)
            right_items = set(ordered) - left_items
            if not right_items:
                continue
            left_f = frozenset(left_items)
            right_f = frozenset(right_items)
            if not self._is_connected(left_f, info):
                continue
            if not self._is_connected(right_f, info):
                continue
            left_group = self._groups_by_key.get(("join", block.name, left_f))
            right_group = self._groups_by_key.get(("join", block.name, right_f))
            if len(left_f) == 1 and isinstance(next(iter(left_f)), AggItem):
                left_group = self._agg_item_group(next(iter(left_f)), info)
            if len(right_f) == 1 and isinstance(next(iter(right_f)), AggItem):
                right_group = self._agg_item_group(next(iter(right_f)), info)
            if left_group is None or right_group is None:
                continue
            hash_keys, residual = self._join_spec(left_f, right_f, info)
            group.add_expr(JoinExpr(left_group, right_group, hash_keys, residual))
        if not group.exprs:
            raise OptimizerError(
                f"join group over {sorted(map(repr, items))} has no expression"
            )
        return group

    def _agg_item_group(self, item: AggItem, info: BlockInfo) -> Optional[Group]:
        outs = tuple(canon_sorted(p.out for p in item.partials))
        key = (
            "agg",
            info.block.name,
            item.source,
            tuple(canon_sorted(item.keys)),
            outs,
        )
        return self._groups_by_key.get(key)

    def _single_table_equalities(
        self, table: TableRef, info: BlockInfo
    ) -> List[Expr]:
        singleton = frozenset([table])
        conjuncts: List[Expr] = []
        for cls in info.classes_within(singleton):
            members = canon_sorted(cls)
            first = members[0]
            for member in members[1:]:
                from ..expr.expressions import ComparisonOp

                conjuncts.append(Comparison(ComparisonOp.EQ, first, member))
        return conjuncts

    # -- join helpers ---------------------------------------------------------

    def _item_adjacent(
        self, item_a: JoinItem, item_b: JoinItem, info: BlockInfo
    ) -> bool:
        for t1 in item_tables(item_a):
            for t2 in item_tables(item_b):
                if info.tables_adjacent(t1, t2):
                    return True
        return False

    def _is_connected(self, items: FrozenSet[JoinItem], info: BlockInfo) -> bool:
        items_list = list(items)
        if len(items_list) <= 1:
            return True
        seen = {items_list[0]}
        frontier = [items_list[0]]
        while frontier:
            current = frontier.pop()
            for other in items_list:
                if other not in seen and self._item_adjacent(current, other, info):
                    seen.add(other)
                    frontier.append(other)
        return len(seen) == len(items_list)

    def _connected_subsets(
        self, items: Sequence[JoinItem], info: BlockInfo
    ) -> List[Tuple[JoinItem, ...]]:
        """All connected subsets, ordered by size (small to large)."""
        items = list(items)
        n = len(items)
        result: List[Tuple[JoinItem, ...]] = []
        for mask in range(1, 2 ** n):
            subset = tuple(
                items[i] for i in range(n) if mask & (1 << i)
            )
            if self._is_connected(frozenset(subset), info):
                result.append(subset)
        result.sort(key=len)
        return result

    def _visible_columns_of(
        self, column: ColumnRef, items: FrozenSet[JoinItem]
    ) -> bool:
        """Whether ``column`` is visible in the output of a join over
        ``items`` (not folded away inside a pre-aggregation)."""
        for item in items:
            if isinstance(item, TableRef):
                if column.table_ref == item:
                    return True
            else:
                if column.table_ref in item.source:
                    return column in item.keys
        return False

    def _join_spec(
        self,
        left: FrozenSet[JoinItem],
        right: FrozenSet[JoinItem],
        info: BlockInfo,
    ) -> Tuple[Tuple[Tuple[ColumnRef, ColumnRef], ...], Tuple[Expr, ...]]:
        """Hash-key pairs (one per spanning equivalence class) and residual
        conjuncts becoming applicable at this join."""
        left_tables = items_tables(left)
        right_tables = items_tables(right)
        all_tables = left_tables | right_tables
        hash_keys: List[Tuple[ColumnRef, ColumnRef]] = []
        for cls in info.classes_within(all_tables):
            left_members = canon_sorted(
                m for m in cls
                if m.table_ref in left_tables and self._visible_columns_of(m, left)
            )
            right_members = canon_sorted(
                m for m in cls
                if m.table_ref in right_tables and self._visible_columns_of(m, right)
            )
            if left_members and right_members:
                hash_keys.append((left_members[0], right_members[0]))
        residual = tuple(
            c for c in info.noneq
            if (lambda tabs: tabs <= all_tables
                and not tabs <= left_tables
                and not tabs <= right_tables)(c.tables())
        )
        return tuple(hash_keys), residual

    # -- cardinality ---------------------------------------------------------

    def _estimate_join_rows(
        self, items: Sequence[JoinItem], info: BlockInfo
    ) -> float:
        """Estimated rows of a join over ``items``, given in canonical
        order: the estimate is a float product, so multiplying in set
        iteration order would change its last bit with the hash seed."""
        rows = 1.0
        item_rows: Dict[JoinItem, float] = {}
        for item in items:
            if isinstance(item, TableRef):
                base = self.estimator.table_rows(item)
                for conjunct in info.local_conjuncts(item):
                    base *= self.estimator.selectivity(conjunct)
                singleton = frozenset([item])
                for cls in info.classes_within(singleton):
                    base *= self.estimator.class_factor(cls, {item: base})
                item_rows[item] = max(base, 0.0)
            else:
                group = self._agg_item_group(item, info)
                item_rows[item] = group.est_rows if group is not None else 1.0
            rows *= max(item_rows[item], 1e-9)

        tables = items_tables(items)
        # Cross-item equivalence-class factors.
        for cls in self._cross_item_classes(items, info):
            rows *= self.estimator.class_factor_for_join(cls, item_rows, items)
        # Non-equality conjuncts spanning at least two items.
        for conjunct in info.noneq:
            conj_tables = conjunct.tables()
            if not conj_tables <= tables:
                continue
            touching = [
                item for item in items if item_tables(item) & conj_tables
            ]
            if len(touching) >= 2:
                rows *= self.estimator.selectivity(conjunct)
        return max(rows, 1.0)

    def _cross_item_classes(
        self, items: Sequence[JoinItem], info: BlockInfo
    ) -> List[FrozenSet[ColumnRef]]:
        tables = items_tables(items)
        result = []
        for cls in info.classes_within(tables):
            touched_items = set()
            for member in cls:
                for item in items:
                    if member.table_ref in item_tables(item):
                        touched_items.add(item)
            if len(touched_items) >= 2:
                result.append(cls)
        return result

    # -- the batch root ---------------------------------------------------------

    def build_root(self, tops: Sequence[Group]) -> Group:
        """Create the dummy batch-root group over the query tops."""
        root = self._new_group(("root",), "root", None, "__root__", frozenset())
        root.add_expr(RootExpr(tuple(tops)))
        root.est_rows = float(sum(g.est_rows for g in tops))
        self.root = root
        return root

    # -- DAG utilities ------------------------------------------------------------

    def descendants(self, group: Group) -> Set[int]:
        """gids of all groups reachable below ``group`` (excluding itself)."""
        cache: Dict[int, Set[int]] = getattr(self, "_desc_cache", None) or {}
        self._desc_cache = cache
        return self._descendants_inner(group, cache)

    def _descendants_inner(self, group: Group, cache: Dict[int, Set[int]]) -> Set[int]:
        if group.gid in cache:
            return cache[group.gid]
        cache[group.gid] = set()  # placeholder guards against cycles
        result: Set[int] = set()
        for expr in group.exprs:
            for child in expr.input_groups():
                result.add(child.gid)
                result.update(self._descendants_inner(child, cache))
        cache[group.gid] = result
        return result

    def invalidate_dag_cache(self) -> None:
        """Drop cached descendant sets (and footprints) after adding groups."""
        self._desc_cache = {}
        self._footprint_cache = None

    def candidate_footprints(
        self, consumers: Dict[str, Set[int]]
    ) -> List[FrozenSet[str]]:
        """Per-group *candidate footprints* (§5.4), indexed by gid.

        A candidate's id is in a group's footprint when at least one of the
        candidate's view-matched consumer groups lies in the group's subtree
        (the group itself included). During CSE optimization the profile DP's
        result for a group can only depend on the enabled candidates inside
        its subtree, so ``footprint ∩ enabled`` is a sound history-cache key:
        passes whose enabled sets agree on that intersection reuse the
        group's plans verbatim.

        Computed bottom-up over the memo DAG in one memoized DFS (children
        can carry *higher* gids than parents — pre-aggregation exploration
        appends join groups after the final agg group — so a gid-ordered
        scan would be wrong). The result is cached per consumer map and
        dropped by :meth:`invalidate_dag_cache`.
        """
        cache_key = tuple(
            (cid, tuple(sorted(gids))) for cid, gids in sorted(consumers.items())
        )
        cached = getattr(self, "_footprint_cache", None)
        if cached is not None and cached[0] == cache_key:
            return cached[1]
        rooted: Dict[int, Set[str]] = {}
        for cid, gids in consumers.items():
            for gid in gids:
                rooted.setdefault(gid, set()).add(cid)
        memo: Dict[int, FrozenSet[str]] = {}

        def visit(group: Group) -> FrozenSet[str]:
            known = memo.get(group.gid)
            if known is not None:
                return known
            memo[group.gid] = frozenset()  # placeholder guards against cycles
            result: Set[str] = set(rooted.get(group.gid, ()))
            for expr in group.exprs:
                for child in expr.input_groups():
                    result.update(visit(child))
            footprint = frozenset(result)
            memo[group.gid] = footprint
            return footprint

        for group in self.groups:
            visit(group)
        footprints = [memo[group.gid] for group in self.groups]
        self._footprint_cache = (cache_key, footprints)
        return footprints

    def least_common_ancestor(self, consumer_gids: Sequence[int]) -> Group:
        """The lowest group whose descendants (plus itself) cover all
        ``consumer_gids`` (Definition 5.1)."""
        if self.root is None:
            raise OptimizerError("memo has no root group")
        needed = set(consumer_gids)
        best: Optional[Group] = None
        best_size = None
        for group in self.groups:
            covered = self.descendants(group) | {group.gid}
            if needed <= covered:
                size = len(covered)
                if best is None or size < best_size or (
                    size == best_size and group.gid < best.gid
                ):
                    best = group
                    best_size = size
        if best is None:
            return self.root
        return best

    # -- signatures -------------------------------------------------------------

    @staticmethod
    def _agg_signature(tables: FrozenSet[TableRef]) -> TableSignature:
        return TableSignature.of_tables(tables, has_groupby=True)
