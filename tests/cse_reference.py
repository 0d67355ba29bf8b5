"""Expression-space oracles for join compatibility, covering predicates and
key facts (paper §4.1 Def 4.1, §4.2 steps 1, 3 and 4).

The optimizer tests Definition 4.1 on integer column ids (partitions of
slot-template columns, slot bitmasks) and weakens covering predicates over
conjunct ids. These are the direct readings over :class:`EquivalenceClasses`
of ``ColumnRef`` and over ``Expr`` conjuncts that the tests hold it to:
class-wise intersection, connectivity of the equijoin graph, the greedy
clique cover of :func:`repro.cse.compatibility.compatibility_groups`, and
the weakened covering predicate with its range hulls, and what a set of
columns determines through verified keys and equivalence classes (the
optimizer's :mod:`repro.optimizer.keys` works on column bitmasks).
"""

from repro.cse import construct
from repro.cse.compatibility import IdSpace, consumer_conjuncts, remap_expr, slot_tables
from repro.expr.expressions import (
    ColumnRef,
    Comparison,
    ComparisonOp,
    Literal,
    canon_sorted,
)
from repro.expr.predicates import EquivalenceClasses, hull_comparison
from repro.types import DataType


def intersect(first, second):
    """Class-wise intersection: for every pair of classes, one from each
    side, the common members form a class of the result (if >= 2)."""
    result = EquivalenceClasses()
    for mine in first.classes():
        for theirs in second.classes():
            common = mine & theirs
            if len(common) >= 2:
                members = canon_sorted(common)
                for member in members[1:]:
                    result.add_equality(members[0], member)
    return result


def graph_connected(tables, classes):
    """Connectivity of the equijoin graph over ``tables`` whose edges come
    from ``classes`` (an edge wherever a class holds columns of two tables)."""
    if len(tables) <= 1:
        return True
    neighbors = {}
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


def slot_space(group, info):
    """A consumer over its slot templates: (templates in slot order, the
    equivalence classes of its predicate)."""
    table_map = slot_tables(group.tables)
    conjuncts = [remap_expr(c, table_map) for c in consumer_conjuncts(group, info)]
    tables = tuple(sorted(table_map.values(), key=lambda t: t.instance))
    return tables, EquivalenceClasses.from_conjuncts(conjuncts)


def join_compatible(first, second, infos):
    """Definition 4.1 for two consumer groups: same slots, and the equijoin
    graph of their intersected classes is connected."""
    first_tables, first_classes = slot_space(first, infos[first.block.name])
    second_tables, second_classes = slot_space(second, infos[second.block.name])
    return first_tables == second_tables and graph_connected(
        first_tables, intersect(first_classes, second_classes)
    )


def compatibility_groups(groups, infos):
    """The greedy clique cover by group id, with :func:`join_compatible`."""
    clusters = []
    for group in sorted(groups, key=lambda g: g.gid):
        for cluster in clusters:
            if all(
                not member.tables & group.tables
                and not (
                    member.kind == "agg" and group.kind == "agg"
                    and member.block is group.block
                )
                and join_compatible(member, group, infos)
                for member in cluster
            ):
                cluster.append(group)
                break
        else:
            clusters.append([group])
    return [c for c in clusters if len(c) >= 2]


def mapped(classes, key):
    """A new structure whose members are ``key(member)``."""
    result = EquivalenceClasses()
    for members in map(canon_sorted, classes.classes()):
        first = key(members[0])
        result.add(first)
        for member in members[1:]:
            result.add_equality(first, key(member))
    return result


def equality_conjuncts(classes):
    """A minimal set of ``a = b`` conjuncts regenerating ``classes`` (each
    class's canonically first column equated with the rest)."""
    return [
        Comparison(ComparisonOp.EQ, members[0], member)
        for members in map(canon_sorted, classes.classes())
        for member in members[1:]
    ]


def _range_bounds(conjuncts):
    """Per column: (low, low_inclusive, high, high_inclusive) implied by the
    ``column op number`` conjuncts (dates are numbers in engine form)."""
    bounds = {}
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
        column, op = normalized.left, normalized.op
        low, low_inc, high, high_inc = bounds.get(column, (None, True, None, True))
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


def _hull_literal(value, column):
    if column.data_type in (DataType.INT, DataType.DATE) and float(value).is_integer():
        return Literal(int(value), column.data_type)
    return Literal(float(value), DataType.FLOAT)


def weakened_covering(residual_sets):
    """Weaken ``OR(AND(residual_i))`` into covering conjuncts: those common
    to every consumer, then per-column range hulls over the rest. Returns
    ``(covering, residuals)``, ``residuals[i]`` being consumer i's
    conjuncts minus the common ones."""
    if not residual_sets:
        return [], []
    others = [set(conjuncts) for conjuncts in residual_sets[1:]]
    covering = [
        conjunct for conjunct in dict.fromkeys(residual_sets[0])
        if all(conjunct in other for other in others)
    ]
    shared = set(covering)
    residuals = [[c for c in conjuncts if c not in shared] for conjuncts in residual_sets]
    if all(residuals):
        per_consumer = [_range_bounds(r) for r in residuals]
        columns = set(per_consumer[0]).intersection(*per_consumer[1:])
        for column in canon_sorted(columns):
            lows = [b[column][0] for b in per_consumer]
            highs = [b[column][2] for b in per_consumer]
            if None not in lows:
                low = min(lows)
                inclusive = any(b[column][1] for b in per_consumer if b[column][0] == low)
                op = ComparisonOp.GE if inclusive else ComparisonOp.GT
                covering.append(Comparison(op, column, _hull_literal(low, column)))
            if None not in highs:
                high = max(highs)
                inclusive = any(b[column][3] for b in per_consumer if b[column][2] == high)
                op = ComparisonOp.LE if inclusive else ComparisonOp.LT
                covering.append(Comparison(op, column, _hull_literal(high, column)))
    return covering, residuals


def weaken_by_ids(residual_sets):
    """Not an oracle: the optimizer's own step 3 (over conjunct ids, hulls
    as ``(column id, op, value)``) run on ``Expr`` conjuncts and read back
    as expressions, in the shape :func:`weakened_covering` returns."""
    space = IdSpace(None)
    ids = [[space.conjunct_id(c) for c in conjuncts] for conjuncts in residual_sets]
    commons, hulls, residuals = construct._weaken(ids, space)
    covering = [space.conjuncts[fid] for fid in commons] + [
        hull_comparison(space.columns[cid], op, value)
        for cid, op, value in hulls
    ]
    return covering, [[space.conjuncts[fid] for fid in r] for r in residuals]


# -- key facts ---------------------------------------------------------------------


def fixed_tables(known, tables, keys, owns, classes):
    """``(tables, columns)``: the tables whose rows the columns ``known`` fix
    through ``classes`` (equal columns are known together) and each table's
    key (``keys[t]``, a frozenset, empty for none); a fixed table makes all
    of ``owns[t]`` known."""
    known = {m for column in known for m in classes.class_of(column)}
    fixed = set()
    grown = True
    while grown:
        grown = False
        for table in tables:
            if table not in fixed and keys[table] and keys[table] <= known:
                fixed.add(table)
                known |= {m for column in owns[table] for m in classes.class_of(column)}
                grown = True
    return fixed, known


def bounding_tables(columns, tables, rows, keys, owns, classes):
    """The tables whose rows together fix ``columns``: all at first, then,
    largest rows first (ties in ``tables`` order), each dropped when the
    rest still fix them; returned in ``tables`` order."""
    kept = list(tables)
    for table in sorted(tables, key=lambda t: (-rows[t], tables.index(t))):
        rest = [t for t in kept if t != table]
        known = {c for t in rest for c in owns[t]}
        if set(columns) <= fixed_tables(known, tables, keys, owns, classes)[1]:
            kept = rest
    return kept
