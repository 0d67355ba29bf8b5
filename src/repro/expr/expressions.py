"""Scalar and aggregate expression trees.

Expressions are immutable (frozen dataclasses) and hashable so they can be
used as dictionary keys, set members, and parts of memo group fingerprints.

Column identity
---------------
A :class:`TableRef` identifies one *instance* of a base table (or work
table). Two references to ``lineitem`` in different queries of a batch are
different instances with the same ``table`` name. Table signatures (§3 of the
paper) are computed from ``table`` names, so the instances share a signature;
everything else (predicates, plans, execution) distinguishes instances.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterator, Optional, Tuple

from ..errors import OptimizerError
from ..types import DataType, common_numeric_type, literal_type


def _structure_cached(cls):
    """Cache the dataclass-generated structural hash on the instance.

    Nodes are immutable, so the first hash is authoritative — the same
    argument (and the same ``__dict__`` side door past the frozen
    ``__setattr__``) as :func:`canon_key`. Every ``*_cache`` entry stays out
    of ``repr``, ``==`` and ``dataclasses.fields``, and out of pickles:
    string hashes are salted per process, so a carried hash would be stale.
    """
    structural = cls.__hash__

    def __hash__(self) -> int:
        state = self.__dict__
        cached = state.get("_hash_cache")
        if cached is None:
            cached = state["_hash_cache"] = structural(self)
        return cached

    def __getstate__(self) -> Dict[str, Any]:
        return {
            name: value
            for name, value in self.__dict__.items()
            if not name.endswith("_cache")
        }

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


@_structure_cached
@dataclass(frozen=True, order=True)
class TableRef:
    """One instance of a table in a query (batch).

    ``instance`` disambiguates repeated uses of the same table. ``alias`` is
    the name the SQL text used; purely cosmetic. ``signature_name`` is what
    table signatures see — for delta tables it is ``delta(<base>)`` so that
    maintenance expressions over deltas never share a CSE with expressions
    over the base table (§6.4).
    """

    table: str
    instance: int
    alias: str = ""
    is_delta: bool = False
    #: Physical table the executor reads; defaults to ``table``. Delta tables
    #: set this to the temporary table holding the update's rows.
    storage_name: str = ""

    @property
    def display_name(self) -> str:
        """Alias if present, else the table name."""
        return self.alias or self.table

    @property
    def physical_name(self) -> str:
        """The storage table the executor reads."""
        return self.storage_name or self.table

    @property
    def signature_name(self) -> str:
        """Name used in table signatures (delta(<base>) for deltas)."""
        if self.is_delta:
            return f"delta({self.table})"
        return self.table

    def __repr__(self) -> str:
        suffix = f"#{self.instance}"
        prefix = "Δ" if self.is_delta else ""
        return f"{prefix}{self.table}{suffix}"


class Expr:
    """Base class for all expressions."""

    data_type: DataType

    def columns(self) -> FrozenSet["ColumnRef"]:
        """All column references in this expression tree (computed once per
        node, from the children's cached sets)."""
        state = self.__dict__
        cached = state.get("_columns_cache")
        if cached is None:
            cached = state["_columns_cache"] = frozenset().union(
                *(child.columns() for child in self.children())
            )
        return cached

    def tables(self) -> FrozenSet[TableRef]:
        """All table instances referenced by this expression."""
        return frozenset(c.table_ref for c in self.columns())

    def children(self) -> Tuple["Expr", ...]:
        return ()

    def substitute(self, mapping: Dict["Expr", "Expr"]) -> "Expr":
        """Replace subexpressions per ``mapping`` (applied top-down)."""
        if self in mapping:
            return mapping[self]
        return self._rebuild(tuple(c.substitute(mapping) for c in self.children()))

    def _rebuild(self, children: Tuple["Expr", ...]) -> "Expr":
        if children != self.children():
            raise OptimizerError(f"{type(self).__name__} cannot be rebuilt")
        return self

    def walk(self) -> Iterator["Expr"]:
        """Pre-order traversal of the expression tree."""
        yield self
        for child in self.children():
            yield from child.walk()

    def contains_aggregate(self) -> bool:
        """Whether any AggExpr occurs in this tree."""
        return any(isinstance(node, AggExpr) for node in self.walk())


@_structure_cached
@dataclass(frozen=True)
class ColumnRef(Expr):
    """A reference to one column of one table instance."""

    table_ref: TableRef
    column: str
    data_type: DataType = field(compare=False, hash=False, default=DataType.INT)

    def columns(self) -> FrozenSet["ColumnRef"]:
        return frozenset((self,))

    @property
    def base_key(self) -> Tuple[str, str]:
        """Instance-agnostic identity: (signature table name, column name)."""
        return (self.table_ref.signature_name, self.column)

    def __repr__(self) -> str:
        return f"{self.table_ref!r}.{self.column}"


@_structure_cached
@dataclass(frozen=True)
class Literal(Expr):
    """A constant. ``value`` is stored in engine representation (dates as
    ints)."""

    value: Any
    data_type: DataType = field(compare=False, hash=False, default=DataType.INT)

    def __post_init__(self) -> None:
        if self.data_type is DataType.INT and not isinstance(self.value, bool):
            # Infer the real type when callers use the default.
            inferred = literal_type(self.value)
            object.__setattr__(self, "data_type", inferred)

    def __repr__(self) -> str:
        return repr(self.value)


class ComparisonOp(enum.Enum):
    """Comparison operators with flip/negate algebra."""
    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def flipped(self) -> "ComparisonOp":
        """The operator with operand order reversed (a op b == b op' a)."""
        return _FLIPPED[self]

    def negated(self) -> "ComparisonOp":
        """The operator accepting exactly the complementary rows."""
        return _NEGATED[self]


_FLIPPED = {
    ComparisonOp.EQ: ComparisonOp.EQ,
    ComparisonOp.NE: ComparisonOp.NE,
    ComparisonOp.LT: ComparisonOp.GT,
    ComparisonOp.LE: ComparisonOp.GE,
    ComparisonOp.GT: ComparisonOp.LT,
    ComparisonOp.GE: ComparisonOp.LE,
}

_NEGATED = {
    ComparisonOp.EQ: ComparisonOp.NE,
    ComparisonOp.NE: ComparisonOp.EQ,
    ComparisonOp.LT: ComparisonOp.GE,
    ComparisonOp.LE: ComparisonOp.GT,
    ComparisonOp.GT: ComparisonOp.LE,
    ComparisonOp.GE: ComparisonOp.LT,
}


@_structure_cached
@dataclass(frozen=True)
class Comparison(Expr):
    """``left op right`` producing a boolean."""

    op: ComparisonOp
    left: Expr
    right: Expr
    data_type: DataType = field(
        compare=False, hash=False, default=DataType.BOOL, init=False
    )

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def _rebuild(self, children: Tuple[Expr, ...]) -> Expr:
        return Comparison(self.op, children[0], children[1])

    def normalized(self) -> "Comparison":
        """Canonical operand order: column-vs-column comparisons are ordered
        by column sort key; literal goes to the right."""
        left, right = self.left, self.right
        if isinstance(left, Literal) and not isinstance(right, Literal):
            return Comparison(self.op.flipped(), right, left)
        if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
            if (right.table_ref, right.column) < (left.table_ref, left.column):
                return Comparison(self.op.flipped(), right, left)
        return self

    @property
    def is_column_equality(self) -> bool:
        """Whether this is a ``col = col`` conjunct."""
        return (
            self.op is ComparisonOp.EQ
            and isinstance(self.left, ColumnRef)
            and isinstance(self.right, ColumnRef)
        )

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op.value} {self.right!r})"


@_structure_cached
@dataclass(frozen=True)
class And(Expr):
    """Conjunction over two or more boolean terms (flattened)."""

    terms: Tuple[Expr, ...]
    data_type: DataType = field(
        compare=False, hash=False, default=DataType.BOOL, init=False
    )

    def __post_init__(self) -> None:
        flattened: Tuple[Expr, ...] = ()
        for term in self.terms:
            if isinstance(term, And):
                flattened += term.terms
            else:
                flattened += (term,)
        object.__setattr__(self, "terms", flattened)

    def children(self) -> Tuple[Expr, ...]:
        return self.terms

    def _rebuild(self, children: Tuple[Expr, ...]) -> Expr:
        return And(children)

    def __repr__(self) -> str:
        return "(" + " AND ".join(repr(t) for t in self.terms) + ")"


@_structure_cached
@dataclass(frozen=True)
class Or(Expr):
    """Disjunction over two or more boolean terms (flattened)."""

    terms: Tuple[Expr, ...]
    data_type: DataType = field(
        compare=False, hash=False, default=DataType.BOOL, init=False
    )

    def __post_init__(self) -> None:
        flattened: Tuple[Expr, ...] = ()
        for term in self.terms:
            if isinstance(term, Or):
                flattened += term.terms
            else:
                flattened += (term,)
        object.__setattr__(self, "terms", flattened)

    def children(self) -> Tuple[Expr, ...]:
        return self.terms

    def _rebuild(self, children: Tuple[Expr, ...]) -> Expr:
        return Or(children)

    def __repr__(self) -> str:
        return "(" + " OR ".join(repr(t) for t in self.terms) + ")"


@_structure_cached
@dataclass(frozen=True)
class Not(Expr):
    """Boolean negation."""
    term: Expr
    data_type: DataType = field(
        compare=False, hash=False, default=DataType.BOOL, init=False
    )

    def children(self) -> Tuple[Expr, ...]:
        return (self.term,)

    def _rebuild(self, children: Tuple[Expr, ...]) -> Expr:
        return Not(children[0])

    def __repr__(self) -> str:
        return f"(NOT {self.term!r})"


class ArithmeticOp(enum.Enum):
    """Arithmetic operators."""
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"


@_structure_cached
@dataclass(frozen=True)
class Arithmetic(Expr):
    """``left op right`` over numeric operands."""

    op: ArithmeticOp
    left: Expr
    right: Expr
    data_type: DataType = field(compare=False, hash=False, default=DataType.FLOAT)

    def __post_init__(self) -> None:
        if self.op is ArithmeticOp.DIV:
            object.__setattr__(self, "data_type", DataType.FLOAT)
        else:
            object.__setattr__(
                self,
                "data_type",
                common_numeric_type(self.left.data_type, self.right.data_type),
            )

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)

    def _rebuild(self, children: Tuple[Expr, ...]) -> Expr:
        return Arithmetic(self.op, children[0], children[1])

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op.value} {self.right!r})"


class AggFunc(enum.Enum):
    """Aggregate functions (all decomposable; AVG via SUM/COUNT)."""
    SUM = "sum"
    COUNT = "count"
    MIN = "min"
    MAX = "max"
    AVG = "avg"

    @property
    def decomposable(self) -> bool:
        """Whether partial aggregates of this function can be combined.

        All five are decomposable for our purposes: AVG decomposes into
        SUM/COUNT, COUNT re-aggregates with SUM.
        """
        return True


@_structure_cached
@dataclass(frozen=True)
class AggExpr(Expr):
    """An aggregate function application. ``arg is None`` means COUNT(*)."""

    func: AggFunc
    arg: Optional[Expr]
    data_type: DataType = field(compare=False, hash=False, default=DataType.FLOAT)

    def __post_init__(self) -> None:
        if self.func is AggFunc.COUNT:
            object.__setattr__(self, "data_type", DataType.INT)
        elif self.func is AggFunc.AVG:
            object.__setattr__(self, "data_type", DataType.FLOAT)
        elif self.arg is not None:
            object.__setattr__(self, "data_type", self.arg.data_type)

    def children(self) -> Tuple[Expr, ...]:
        return () if self.arg is None else (self.arg,)

    def _rebuild(self, children: Tuple[Expr, ...]) -> Expr:
        return AggExpr(self.func, children[0] if children else None)

    def __repr__(self) -> str:
        arg = "*" if self.arg is None else repr(self.arg)
        return f"{self.func.value}({arg})"


TRUE = Literal(True, DataType.BOOL)
FALSE = Literal(False, DataType.BOOL)


def canon_key(obj: Any) -> str:
    """A stable textual sort key for an expression-like object, computed
    once and cached on the object.

    Canonicalization in the memo sorts columns, aggregates, and join items
    by their ``repr`` in a dozen places; recomputing ``repr`` for every
    comparison makes each sort O(n log n) *tree walks*. Expression nodes
    are immutable, so the first ``repr`` is authoritative — it is interned
    on the instance (frozen dataclasses forbid plain assignment but not
    :func:`object.__setattr__`) and every later sort reuses it. Objects
    with ``__slots__`` (none of ours today) just fall back to an uncached
    ``repr``.
    """
    key = getattr(obj, "_canon_key_cache", None)
    if key is None:
        key = repr(obj)
        try:
            object.__setattr__(obj, "_canon_key_cache", key)
        except (AttributeError, TypeError):
            pass
    return key


def canon_sorted(items: Any) -> list:
    """``sorted(items, key=repr)`` with the per-object cached key."""
    return sorted(items, key=canon_key)


def column(table_ref: TableRef, name: str, data_type: DataType) -> ColumnRef:
    """Convenience constructor for :class:`ColumnRef`."""
    return ColumnRef(table_ref, name, data_type)


def eq(left: Expr, right: Expr) -> Comparison:
    """``left = right``."""
    return Comparison(ComparisonOp.EQ, left, right)


def lt(left: Expr, right: Expr) -> Comparison:
    """``left < right``."""
    return Comparison(ComparisonOp.LT, left, right)


def gt(left: Expr, right: Expr) -> Comparison:
    """``left > right``."""
    return Comparison(ComparisonOp.GT, left, right)


def le(left: Expr, right: Expr) -> Comparison:
    """``left <= right``."""
    return Comparison(ComparisonOp.LE, left, right)


def ge(left: Expr, right: Expr) -> Comparison:
    """``left >= right``."""
    return Comparison(ComparisonOp.GE, left, right)
