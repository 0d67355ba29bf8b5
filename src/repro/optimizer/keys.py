"""Key facts: what a set of columns determines inside a join.

A join *item* — a base table instance, a pre-aggregated input, a slot of a
covering subexpression — is unique on a *key* when no two of its rows agree
on those columns. Two kinds of fact are keys here:

* a base table's declared primary key, only while ``Database.analyze`` has
  verified it on the stored rows
  (:meth:`~repro.optimizer.cardinality.CardinalityEstimator.key_columns`):
  declared keys are not enforced, a write drops the fact together with the
  statistics, and a delta table never has one;
* an aggregate's group keys, over its output.

Inside a join the columns of one equivalence class are equal, so knowing
some columns fixes every class they touch; a known key fixes its item's row
and with it every column of the item, which may complete another item's
key. :func:`determined` runs that fixpoint. Uniqueness therefore passes
through an equi-join exactly when the other side's key lies in classes the
first side reaches, and a join is unique on any columns that fix all of its
items; a join on a non-key column fixes nothing.

Columns are bits of the caller's space (one bit per block column in the
memo, :class:`~repro.cse.compatibility.IdSpace` column ids in §4.2
construction); classes are disjoint column masks; item ``i`` is
``keys[i]``, its key's mask (0: no key), and ``reach[i]``, its columns in
the space closed under the classes. Three readers: the group-count bound
(:func:`bound_items` feeding
:func:`~repro.optimizer.cardinality.group_count`), the memo's identity
aggregates, and the key §4.2 construction adds to a non-compressing
covering aggregate.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ..expr.expressions import ColumnRef, TableRef, canon_sorted


def close(known: int, classes: Sequence[int]) -> int:
    """``known`` plus every class it touches. Classes are disjoint, so one
    pass is the closure, and the closure of a union is the union of the
    closures."""
    for cls in classes:
        if cls & known:
            known |= cls
    return known


def determined(known: int, keys: Sequence[int], reach: Sequence[int]) -> Tuple[int, int]:
    """``(items, columns)``: the items (a mask over indices) whose rows the
    columns ``known`` fix, and every column known once they are. ``known``
    and each ``reach[i]`` — item i's columns — are closed (:func:`close`)."""
    fixed, grown = 0, True
    while grown:
        grown = False
        for index, key in enumerate(keys):
            if key and not fixed >> index & 1 and not key & ~known:
                fixed |= 1 << index
                known |= reach[index]
                grown = True
    return fixed, known


def bound_items(
    columns: int, order: Sequence[int], keys: Sequence[int], reach: Sequence[int]
) -> List[int]:
    """Items whose rows together fix ``columns``, ascending: all of
    ``order`` at first, then each in turn dropped when the rest still fix
    ``columns`` — an item another kept item determines goes, and of two
    items that determine each other exactly one stays. Callers order by
    descending rows, so the larger of such a pair goes."""
    kept = list(order)
    for index in order:
        known = 0
        for i in kept:
            if i != index:
                known |= reach[i]
        if columns & ~known:
            known = determined(known, keys, reach)[1]
        if not columns & ~known:
            kept.remove(index)
    return sorted(kept)


class BlockKeys:
    """One block's key facts in bit form, built once per block by the memo:
    a bit per block column and verified key column, the classes as masks of
    those bits, and each table instance's key and closed columns. A join
    item is a :class:`TableRef` or a pre-aggregated input, unique on its
    ``keys``."""

    def __init__(
        self,
        columns: Iterable[ColumnRef],
        classes: Iterable[Iterable[ColumnRef]],
        table_keys: Dict[TableRef, Sequence[ColumnRef]],
    ) -> None:
        every = set(columns)
        for key in table_keys.values():
            every.update(key)
        self.bit = {c: 1 << i for i, c in enumerate(every)}  # any order
        self.classes = [self.mask(cls) for cls in classes]
        own: Dict[TableRef, int] = dict.fromkeys(table_keys, 0)
        for column, bit in self.bit.items():
            own[column.table_ref] |= bit
        self.tables: Dict[TableRef, Tuple[int, int]] = {
            table: (self.mask(key), close(own[table], self.classes))
            for table, key in table_keys.items()
        }

    def mask(self, columns: Iterable[ColumnRef]) -> int:
        """The bits of ``columns`` (columns outside the block have none)."""
        mask = 0
        for column in columns:
            mask |= self.bit.get(column, 0)
        return mask

    def representatives(self, columns: Iterable[ColumnRef]) -> List[ColumnRef]:
        """One column per equivalence class, the first in canonical order:
        columns known equal (both sides of an equijoin kept as
        pre-aggregation keys) must not multiply a group-count domain."""
        chosen: List[ColumnRef] = []
        seen = 0
        for column in canon_sorted(columns):
            bit = self.bit.get(column, 0)
            if not bit & seen:
                chosen.append(column)
                seen |= close(bit, self.classes)
        return chosen

    def _facts(self, items: Iterable[object]) -> Tuple[List[int], List[int]]:
        keys: List[int] = []
        reach: List[int] = []
        for item in items:
            if isinstance(item, TableRef):
                key, closed = self.tables[item]
            else:  # an aggregate, unique on its group keys
                key = self.mask(item.keys)
                closed = close(key, self.classes)
            keys.append(key)
            reach.append(closed)
        return keys, reach

    def determines(self, columns: Iterable[ColumnRef], items: Iterable[object]) -> bool:
        """Whether ``columns`` fix every row of the join of ``items`` — the
        join is unique on them, so grouping by them is an identity."""
        keys, reach = self._facts(items)
        known = close(self.mask(columns), self.classes)
        return determined(known, keys, reach)[0] == (1 << len(keys)) - 1

    def bound_items(
        self, columns: Iterable[ColumnRef], tables: Sequence[TableRef], rows: Sequence[float]
    ) -> List[int]:
        """Indices into ``tables`` (filtered rows ``rows``) whose rows fix
        ``columns``: :func:`bound_items`, larger tables dropped first."""
        keys, reach = self._facts(tables)
        order = sorted(range(len(tables)), key=lambda i: -rows[i])
        return bound_items(self.mask(columns), order, keys, reach)
