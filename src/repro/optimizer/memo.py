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
    ComparisonOp,
    Expr,
    TableRef,
    canon_key,
    canon_sorted,
)
from ..expr.predicates import EquivalenceClasses
from ..logical.blocks import QueryBlock
from ..cse.signature import TableSignature
from .aggs import AggCompute, combine_computes, decomposable_over, direct_computes, partial_computes
from .cardinality import CardinalityEstimator, group_count
from .keys import BlockKeys

#: Explore eager pre-aggregation (group-by pushdown below joins). This is
#: what generates aggregated sharing opportunities such as the paper's
#: E4/E5 (Figure 6); the ablation bench turns it off. Read at call time.
PREAGG = True

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
    ``identity`` when the keys fix every row of the input (a key fact,
    :mod:`.keys`): each row is its own group, so nothing is grouped.
    """

    input_group: "Group"
    keys: Tuple[ColumnRef, ...]
    computes: Tuple[AggCompute, ...]
    identity: bool = False

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
    assignment, the equijoin graph, and the estimator inputs the memo reads
    for every subset.

    Every set test the memo makes is an ``int`` mask test. The i-th table of
    ``sorted(block.tables)`` is bit ``1 << i``; a join item's mask is the OR
    of its tables' bits; the join graph is one neighbour mask per bit. An
    *item* set is connected exactly when the union of its masks is: a plain
    table is a single bit and every :class:`AggItem` source is itself a
    connected subset, so a path between the union's tables is a path
    between its items and vice versa.
    """

    def __init__(self, block: QueryBlock, estimator: CardinalityEstimator) -> None:
        self.block = block
        self.classes: EquivalenceClasses = block.equivalence_classes()
        self.tables: Tuple[TableRef, ...] = tuple(sorted(block.tables))
        self.bits: Tuple[int, ...] = tuple(1 << i for i in range(len(self.tables)))
        self.bit: Dict[TableRef, int] = dict(zip(self.tables, self.bits))
        self.full = (1 << len(self.tables)) - 1
        #: (table, bit) in canonical item order, the order estimates multiply in.
        self.canon_tables = [(t, self.bit[t]) for t in canon_sorted(self.tables)]
        #: Each class as (table mask, canonical ((member, bit, ndv), ...)).
        self.class_bits: List[Tuple[int, Tuple[Tuple[ColumnRef, int, float], ...]]] = [
            (
                self.mask_of(m.table_ref for m in cls),
                tuple((m, self.bit[m.table_ref], estimator.column_ndv(m))
                      for m in canon_sorted(cls)),
            )
            for cls in self.classes.classes()
        ]
        #: (conjunct, table mask, selectivity) per non-equality conjunct the
        #: block filters by (``CardinalityEstimator.filters``): the one list
        #: the memo and the consumer profiles (so §5.1 matching) read. A
        #: table-less one (FALSE, or a scalar subquery's test) filters the
        #: first table.
        self.noneq_bits: List[Tuple[Expr, int, float]] = [
            (c, self.mask_of(c.tables()) or self.bits[0], selectivity)
            for c, selectivity in estimator.filters(block.conjuncts)
        ]
        self.noneq: List[Expr] = [c for c, _, _ in self.noneq_bits]
        #: Block-required columns in canonical order, with their table bit.
        self.required: Tuple[Tuple[ColumnRef, int], ...] = tuple(
            (c, self.bit[c.table_ref]) for c in canon_sorted(block.required_columns())
        )
        self.neighbors = [0] * len(self.tables)
        for mask, _ in self.class_bits:
            self._link(mask)
        for _, mask, _ in self.noneq_bits:
            self._link(mask)
        self._bridge_components()
        self._connected: Dict[int, bool] = {}
        self._unions: Dict[Tuple[int, ...], List[int]] = {}
        self._classes_cache: Dict[int, List[Tuple[ColumnRef, ...]]] = {}
        self._preagg_keys: Dict[int, Tuple[ColumnRef, ...]] = {}
        #: Group-count estimates per table mask (Memo._group_rows).
        self.group_counts: Dict[int, float] = {}
        #: Filtered rows of each table (local conjuncts, single-table classes).
        self.base_rows: Dict[int, float] = {}
        for table, bit in zip(self.tables, self.bits):
            rows = estimator.table_rows(table)
            for _, mask, selectivity in self.noneq_bits:
                if mask == bit:
                    rows *= selectivity
            for members in self.classes_within((table,)):
                rows *= estimator.class_factor(members)
            self.base_rows[bit] = max(rows, 0.0)
        self.keys = BlockKeys(
            (column for column, _ in self.required),
            (tuple(m for m, _, _ in members) for _, members in self.class_bits),
            {table: estimator.key_columns(table) for table in self.tables},
        )

    # -- masks and the join graph -------------------------------------------

    def mask_of(self, tables: Iterable[TableRef]) -> int:
        """The mask of some of the block's table instances."""
        mask = 0
        for table in tables:
            mask |= self.bit[table]
        return mask

    def tables_of(self, mask: int) -> FrozenSet[TableRef]:
        """The table instances of ``mask``."""
        return frozenset(t for t, bit in zip(self.tables, self.bits) if bit & mask)

    def bits_of(self, mask: int) -> Tuple[int, ...]:
        """The single-table bits of ``mask``, in ``sorted(block.tables)`` order."""
        return tuple(bit for bit in self.bits if bit & mask)

    def _link(self, mask: int) -> None:
        """Join every pair of tables in ``mask``."""
        for index, bit in enumerate(self.bits):
            if bit & mask:
                self.neighbors[index] |= mask & ~bit

    def _bridge_components(self) -> None:
        """Connect disconnected components with synthetic (cartesian) edges
        so subset enumeration covers the whole block: each component's
        first table joins the next component's."""
        seen, firsts = 0, []
        for bit in self.bits:
            if not bit & seen:
                seen |= self._reach(bit, self.full)
                firsts.append(bit)
        for first, second in zip(firsts, firsts[1:]):
            self._link(first | second)

    def _reach(self, start: int, within: int) -> int:
        """The tables reachable from ``start`` over edges inside ``within``."""
        reached = frontier = start
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grown = self.neighbors[low.bit_length() - 1] & within & ~reached
            reached |= grown
            frontier |= grown
        return reached

    def connected(self, mask: int) -> bool:
        """Whether the tables of ``mask`` form a connected join graph."""
        known = self._connected.get(mask)
        if known is None:
            known = self._connected[mask] = self._reach(mask & -mask, mask) == mask
        return known

    def connected_unions(self, masks: Tuple[int, ...]) -> List[int]:
        """The union masks of the connected subsets of disjoint items with
        masks ``masks``: fewest items first, ties in subset-index order
        (bit i of the index picks ``masks[i]``)."""
        cached = self._unions.get(masks)
        if cached is None:
            unions = [0]
            for mask in masks:
                unions += [union | mask for union in unions]
            order = sorted(range(1, len(unions)), key=lambda i: bin(i).count("1"))
            cached = self._unions[masks] = [
                unions[i] for i in order if self.connected(unions[i])
            ]
        return cached

    # -- conjunct assignment ----------------------------------------------

    def noneq_within(self, tables: Iterable[TableRef]) -> List[Expr]:
        """Non-equality conjuncts fully inside ``tables``."""
        mask = self.mask_of(tables)
        return [c for c, conj_mask, _ in self.noneq_bits if not conj_mask & ~mask]

    def local_conjuncts(self, table: TableRef) -> List[Expr]:
        """Single-table non-equality conjuncts of one instance."""
        bit = self.bit[table]
        return [c for c, conj_mask, _ in self.noneq_bits if conj_mask == bit]

    def classes_within(self, tables: Iterable[TableRef]) -> List[Tuple[ColumnRef, ...]]:
        """Equivalence classes restricted to ``tables`` (>= 2 members), each
        in canonical member order; cached per table mask."""
        mask = self.mask_of(tables)
        cached = self._classes_cache.get(mask)
        if cached is None:
            restricted = (
                tuple(m for m, bit, _ in members if bit & mask)
                for _, members in self.class_bits
            )
            cached = self._classes_cache[mask] = [c for c in restricted if len(c) >= 2]
        return cached

    def preagg_keys(self, mask: int) -> Tuple[ColumnRef, ...]:
        """Grouping keys of a pre-aggregation over ``mask``: the block's
        group keys inside it plus the columns of conjuncts spanning its
        boundary (the join columns it must keep); cached per mask."""
        cached = self._preagg_keys.get(mask)
        if cached is None:
            keys: Set[ColumnRef] = {
                k for k in self.block.group_keys
                if self.bit.get(k.table_ref, 0) & mask
            }
            for class_mask, members in self.class_bits:
                if class_mask & mask and class_mask & ~mask:
                    keys.update(m for m, bit, _ in members if bit & mask)
            for conjunct, conj_mask, _ in self.noneq_bits:
                if conj_mask & mask and conj_mask & ~mask:
                    keys.update(
                        c for c in conjunct.columns() if self.bit[c.table_ref] & mask
                    )
            cached = self._preagg_keys[mask] = tuple(canon_sorted(keys))
        return cached


# ---------------------------------------------------------------------------
# The memo
# ---------------------------------------------------------------------------


class Memo:
    """Holds all groups for a batch plus the group DAG."""

    def __init__(self, estimator: CardinalityEstimator) -> None:
        self.estimator = estimator
        self._groups_by_key: Dict[object, Group] = {}
        self.groups: List[Group] = []
        self.block_infos: Dict[str, BlockInfo] = {}
        self.block_tops: Dict[str, Group] = {}
        self.root: Optional[Group] = None
        #: (group, part_id) registrations in creation order, consumed by the
        #: CSE manager (Step 1 of the paper's architecture).
        self.signature_log: List[Group] = []
        #: descendant gids per gid; adding a group drops it.
        self._desc_cache: Dict[int, Set[int]] = {}

    # -- group creation -----------------------------------------------------

    def _new_group(
        self,
        key: object,
        kind: str,
        block: Optional[QueryBlock],
        part_id: str,
        items: FrozenSet[JoinItem],
        tables: FrozenSet[TableRef],
    ) -> Group:
        group = Group(
            gid=len(self.groups),
            kind=kind,
            block=block,
            part_id=part_id,
            items=items,
            tables=tables,
        )
        self.groups.append(group)
        self._groups_by_key[key] = group
        self._desc_cache = {}
        return group

    # -- block construction ---------------------------------------------------

    def build_block(self, block: QueryBlock, part_id: str) -> Group:
        """Explore one SPJG block; returns its top group."""
        if block.name in self.block_infos:
            raise OptimizerError(f"block {block.name!r} built twice")
        info = BlockInfo(block, self.estimator)
        self.block_infos[block.name] = info

        for subset in info.connected_unions(info.bits):
            self._build_join_group(info, part_id, subset)
        top = self._groups_by_key[("join", block.name, info.full, 0)]

        if block.has_groupby:
            top = self._build_final_agg_group(info, part_id)
        self.block_tops[block.name] = top
        return top

    def _build_final_agg_group(self, info: BlockInfo, part_id: str) -> Group:
        block = info.block
        key = (
            "agg",
            block.name,
            info.full,
            tuple(canon_sorted(block.group_keys)),
            tuple(canon_sorted(block.aggregates)),
        )
        group = self._new_group(
            key, "agg", block, part_id, block.table_set, block.table_set
        )
        group.agg_keys = block.group_keys
        group.agg_outs = tuple(block.aggregates)
        full_join = self._groups_by_key[("join", block.name, info.full, 0)]
        self._add_agg(
            info, group, full_join, block.group_keys, direct_computes(block.aggregates)
        )
        group.est_rows = self._group_rows(
            info, full_join.est_rows, block.group_keys, info.full
        )
        group.required_outputs = tuple(block.group_keys) + tuple(block.aggregates)
        group.row_width = self.estimator.width_of(group.required_outputs)
        group.signature = self._agg_signature(block.table_set)
        self.signature_log.append(group)

        if PREAGG:
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
        if len(info.bits) < 2:
            return
        for subset in info.connected_unions(info.bits):
            if subset == info.full:
                continue  # pre-aggregating everything IS the final aggregation
            if bin(subset).count("1") > PREAGG_MAX_TABLES:
                continue
            source = info.tables_of(subset)
            if not decomposable_over(block.aggregates, source):
                continue
            partials = partial_computes(block.aggregates, source)
            if not partials:
                continue
            keys = info.preagg_keys(subset)
            input_join = self._groups_by_key[("join", block.name, subset, 0)]
            group_count = self._group_rows(info, input_join.est_rows, keys, subset)
            if group_count > PREAGG_MIN_COMPRESSION * max(
                input_join.est_rows, 1.0
            ):
                continue  # non-compressing pre-aggregation: not useful
            agg_item = AggItem(source=source, keys=keys, partials=partials)
            self._build_preagg_group(info, part_id, agg_item, subset)
            mixed_top = self._build_mixed_joins(info, part_id, agg_item, subset)
            if mixed_top is None:
                continue
            self._add_agg(
                info, final_group, mixed_top, block.group_keys,
                combine_computes(block.aggregates, source),
            )

    @staticmethod
    def _add_agg(
        info: BlockInfo,
        group: Group,
        input_group: Group,
        keys: Tuple[ColumnRef, ...],
        computes: Tuple[AggCompute, ...],
    ) -> None:
        """Add ``γ_keys;computes(input_group)`` to ``group``, an identity when
        the keys fix every row of the input."""
        identity = info.keys.determines(keys, input_group.items)
        group.add_expr(AggImplExpr(input_group, keys, computes, identity))

    def _group_rows(
        self, info: BlockInfo, input_rows: float, keys: Tuple[ColumnRef, ...], mask: int
    ) -> float:
        """Estimated groups of ``keys`` over the join of ``mask``'s tables,
        bounded by the filtered rows of the tables that fix the keys (all
        input rows when the keys fix every table). Cached per mask — the
        keys are the block's group keys over all its tables and
        ``preagg_keys(mask)`` otherwise — so the pre-aggregation gate and its
        group share one estimate."""
        cached = info.group_counts.get(mask)
        if cached is None:
            tables = [table for table, bit in info.canon_tables if bit & mask]
            rows = [info.base_rows[info.bit[table]] for table in tables]
            if info.keys.determines(keys, tables):
                cached = group_count(input_rows, (), unique=True)
            else:
                ndvs = [self.estimator.column_ndv(k) for k in info.keys.representatives(keys)]
                cached = group_count(input_rows, ndvs)
                # A product of table rows is at least the smallest of them.
                if cached > min(max(r, 1.0) for r in rows):
                    kept = info.keys.bound_items(keys, tables, rows)
                    cached = group_count(input_rows, ndvs, [rows[i] for i in kept])
            info.group_counts[mask] = cached
        return cached

    @staticmethod
    def _agg_key(info: BlockInfo, item: AggItem, mask: int) -> tuple:
        """Memo key of the pre-aggregation group computing ``item``, whose
        source tables are ``mask``."""
        outs = tuple(canon_sorted(p.out for p in item.partials))
        return ("agg", info.block.name, mask, tuple(canon_sorted(item.keys)), outs)

    def _build_preagg_group(
        self, info: BlockInfo, part_id: str, item: AggItem, mask: int
    ) -> Group:
        block = info.block
        key = self._agg_key(info, item, mask)
        existing = self._groups_by_key.get(key)
        if existing is not None:
            return existing
        group = self._new_group(
            key, "agg", block, part_id, frozenset([item]), item.source
        )
        group.agg_keys = item.keys
        group.agg_outs = key[4]
        input_join = self._groups_by_key[("join", block.name, mask, 0)]
        self._add_agg(info, group, input_join, item.keys, item.partials)
        group.est_rows = self._group_rows(info, input_join.est_rows, item.keys, mask)
        group.required_outputs = tuple(item.keys) + tuple(p.out for p in item.partials)
        group.row_width = self.estimator.width_of(group.required_outputs)
        group.signature = self._agg_signature(item.source)
        self.signature_log.append(group)
        self._nest_preaggregation(info, group, item, mask)
        return group

    def _nest_preaggregation(
        self, info: BlockInfo, group: Group, item: AggItem, mask: int
    ) -> None:
        """Combine-implementations of a pre-aggregation over *deeper*
        pre-aggregations: ``γ(S) = γ-combine(join(γ(S'), S∖S'))``.

        This mirrors what repeated rule application yields in a Cascades
        memo and is what makes a narrower aggregated group a memo-DAG
        descendant of the wider one — the structural fact Definition 4.2's
        containment check relies on (paper Example 9)."""
        block = info.block
        outer_aggs = [p.out for p in item.partials]
        if len(item.source) < 2:
            return
        for inner in info.connected_unions(info.bits_of(mask)):
            if inner == mask:
                continue
            inner_source = info.tables_of(inner)
            if not decomposable_over(outer_aggs, inner_source):
                continue
            inner_partials = partial_computes(outer_aggs, inner_source)
            if not inner_partials:
                continue
            inner_item = AggItem(
                source=inner_source,
                keys=info.preagg_keys(inner),
                partials=inner_partials,
            )
            if self._groups_by_key.get(self._agg_key(info, inner_item, inner)) is None:
                continue  # only reuse pre-aggregations the block explores
            mixed_join = self._groups_by_key.get(
                ("join", block.name, mask & ~inner, inner)
            )
            if mixed_join is None or inner_item not in mixed_join.items:
                continue  # the masks match; the partials must match too
            try:
                computes = combine_computes(outer_aggs, inner_source)
            except OptimizerError:
                continue
            self._add_agg(info, group, mixed_join, item.keys, computes)

    def _build_mixed_joins(
        self, info: BlockInfo, part_id: str, item: AggItem, mask: int
    ) -> Optional[Group]:
        """Join groups over {AggItem} ∪ (remaining tables); returns the group
        covering everything, or None when the block has no remaining tables
        (the caller then has nothing to combine)."""
        assert info.connected(mask), "an AggItem's source must be connected"
        rest = info.full & ~mask
        if not rest:
            return None
        for union in info.connected_unions((mask,) + info.bits_of(rest)):
            if union & mask and union != mask:
                # pure-table subsets exist; {item} alone is the agg group
                self._build_join_group(info, part_id, union & ~mask, item, mask)
        return self._groups_by_key.get(("join", info.block.name, rest, mask))

    # -- join groups -----------------------------------------------------------

    def _build_join_group(
        self,
        info: BlockInfo,
        part_id: str,
        plain: int,
        agg: Optional[AggItem] = None,
        agg_mask: int = 0,
    ) -> Group:
        """The join group over the tables of ``plain`` plus, for a mixed
        group, the pre-aggregated input ``agg`` over the tables of
        ``agg_mask``; keyed by those two masks."""
        block = info.block
        key = ("join", block.name, plain, agg_mask)
        existing = self._groups_by_key.get(key)
        if existing is not None:
            return existing
        mask = plain | agg_mask
        tables = info.tables_of(mask)
        items = tables if agg is None else info.tables_of(plain) | {agg}
        group = self._new_group(key, "join", block, part_id, items, tables)

        # Required outputs: block-required columns of the plain tables; the
        # columns folded inside a pre-aggregation are replaced by its keys
        # and partial outputs.
        required: List[Expr] = [c for c, bit in info.required if bit & plain]
        if agg is not None:
            seen: Set[Expr] = set(required)
            for expr in tuple(agg.keys) + tuple(p.out for p in agg.partials):
                if expr not in seen:
                    required.append(expr)
                    seen.add(expr)
        group.required_outputs = tuple(required)
        group.row_width = self.estimator.width_of(group.required_outputs)

        # Signature: join of plain tables => [F; names]; anything involving a
        # pre-aggregated input has no signature (Figure 2 "other cases").
        if agg is None:
            if len(items) == 1:
                table_ref = next(iter(items))
                group.signature = TableSignature(
                    False, (table_ref.signature_name,)
                )
            else:
                group.signature = TableSignature.of_tables(
                    group.tables, has_groupby=False
                )
            self.signature_log.append(group)

        # Cardinality, over (item, mask) pairs in canonical item order.
        ordered = [(t, bit) for t, bit in info.canon_tables if bit & plain]
        agg_group = None
        if agg is not None:
            agg_group = self._groups_by_key.get(self._agg_key(info, agg, agg_mask))
            ordered.append((agg, agg_mask))
            ordered.sort(key=lambda pair: canon_key(pair[0]))
        group.est_rows = self._estimate_join_rows(info, ordered, agg_mask, agg_group)

        # Expressions.
        if len(ordered) == 1:
            if agg is None:
                table = ordered[0][0]
                conjuncts = tuple(info.local_conjuncts(table)) + tuple(
                    self._single_table_equalities(table, info)
                )
                group.add_expr(ScanExpr(table, conjuncts))
            # Single AggItem groups are aggregate groups, never join groups.
            return group

        # Each class's members visible above this join (not folded inside
        # the pre-aggregation), and the non-equality conjuncts inside it.
        classes = []
        for _, members in info.class_bits:
            visible = tuple(
                (m, bit) for m, bit, _ in members
                if bit & plain or (bit & agg_mask and m in agg.keys)
            )
            if len(visible) >= 2:
                classes.append(visible)
        within = [(c, m) for c, m, _ in info.noneq_bits if not m & ~mask]

        def side_group(side: int) -> Optional[Group]:
            if side == agg_mask:
                return agg_group
            return self._groups_by_key.get(
                ("join", block.name, side & ~agg_mask, side & agg_mask)
            )

        # One partition per subset of the non-anchor items joined to the
        # first item, in subset-index order.
        lefts = [ordered[0][1]]
        for _, item_mask in ordered[1:]:
            lefts += [left | item_mask for left in lefts]
        for left in lefts:
            right = mask ^ left
            if not right or not (info.connected(left) and info.connected(right)):
                continue
            left_group, right_group = side_group(left), side_group(right)
            if left_group is None or right_group is None:
                continue
            hash_keys = []
            for visible in classes:
                left_key = next((m for m, bit in visible if bit & left), None)
                right_key = next((m for m, bit in visible if bit & right), None)
                if left_key is not None and right_key is not None:
                    hash_keys.append((left_key, right_key))
            residual = tuple(c for c, m in within if m & left and m & right)
            group.add_expr(JoinExpr(left_group, right_group, tuple(hash_keys), residual))
        if not group.exprs:
            raise OptimizerError(
                f"join group over {sorted(map(repr, items))} has no expression"
            )
        return group

    @staticmethod
    def _single_table_equalities(table: TableRef, info: BlockInfo) -> List[Expr]:
        conjuncts: List[Expr] = []
        for members in info.classes_within((table,)):
            first = members[0]
            for member in members[1:]:
                conjuncts.append(Comparison(ComparisonOp.EQ, first, member))
        return conjuncts

    # -- cardinality ---------------------------------------------------------

    def _estimate_join_rows(
        self,
        info: BlockInfo,
        ordered: Sequence[Tuple[JoinItem, int]],
        agg_mask: int,
        agg_group: Optional[Group],
    ) -> float:
        """Estimated rows of a join over the (item, mask) pairs ``ordered``,
        given in canonical item order: the estimate is a float product, so
        multiplying in set or bit order would tie its last bit to the hash
        seed or to the bit assignment."""
        rows = 1.0
        item_rows: Dict[int, float] = {}
        mask = 0
        for _, item_mask in ordered:
            if item_mask == agg_mask:
                value = agg_group.est_rows if agg_group is not None else 1.0
            else:
                value = info.base_rows[item_mask]
            item_rows[item_mask] = value
            rows *= max(value, 1e-9)
            mask |= item_mask

        # Cross-item equivalence-class factors: each item touching a class
        # contributes its members' smallest NDV, capped by its rows.
        for class_mask, members in info.class_bits:
            touched = class_mask & mask
            if not touched & (touched - 1):
                continue  # inside one table: already in its base rows
            ndvs: Dict[int, float] = {}
            for _, bit, ndv in members:
                if bit & mask:
                    owner = agg_mask if bit & agg_mask else bit
                    capped = min(ndv, max(item_rows[owner], 1.0))
                    ndvs[owner] = min(ndvs.get(owner, capped), capped)
            if len(ndvs) >= 2:
                rows *= self.estimator.class_factor_for_join(ndvs.values())
        # Non-equality conjuncts spanning at least two items.
        for _, conj_mask, selectivity in info.noneq_bits:
            if conj_mask & ~mask:
                continue
            touching = bin(conj_mask & ~agg_mask).count("1")
            if conj_mask & agg_mask:
                touching += 1
            if touching >= 2:
                rows *= selectivity
        return max(rows, 1.0)

    # -- the batch root ---------------------------------------------------------

    def build_root(self, tops: Sequence[Group]) -> Group:
        """Create the dummy batch-root group over the query tops."""
        root = self._new_group(
            ("root",), "root", None, "__root__", frozenset(), frozenset()
        )
        root.add_expr(RootExpr(tuple(tops)))
        root.est_rows = float(sum(g.est_rows for g in tops))
        self.root = root
        return root

    # -- DAG utilities ------------------------------------------------------------

    def descendants(self, group: Group) -> Set[int]:
        """gids of all groups reachable below ``group`` (excluding itself)."""
        cache = self._desc_cache
        if group.gid in cache:
            return cache[group.gid]
        cache[group.gid] = set()  # placeholder guards against cycles
        result: Set[int] = set()
        for expr in group.exprs:
            for child in expr.input_groups():
                result.add(child.gid)
                result.update(self.descendants(child))
        cache[group.gid] = result
        return result

    def candidate_footprints(
        self, consumers: Dict[str, Set[int]]
    ) -> List[FrozenSet[str]]:
        """Per-group *candidate footprints* (§5.4), indexed by gid.

        A candidate's id is in a group's footprint when at least one of the
        candidate's view-matched consumer groups lies in the group's subtree
        (the group itself included). During CSE optimization the profile DP's
        result for a group can only depend on the enabled candidates inside
        its subtree, so a group with an empty footprint keeps the plan set
        of normal optimization verbatim.

        Computed bottom-up over the memo DAG in one memoized DFS (children
        can carry *higher* gids than parents — pre-aggregation exploration
        appends join groups after the final agg group — so a gid-ordered
        scan would be wrong).
        """
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
        return [memo[group.gid] for group in self.groups]

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
