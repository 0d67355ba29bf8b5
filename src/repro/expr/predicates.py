"""Predicate utilities: conjuncts, equivalence classes, implication.

The paper's join-compatibility test (§4.1) and CSE construction (§4.2) both
operate on *column equivalence classes* derived from the column-equality
conjuncts of a normalized SPJ expression, following Goldstein & Larson's view
matching framework ([5] in the paper). This module implements:

* conjunct splitting,
* :class:`EquivalenceClasses`: union-find over column references,
* conservative implication between range bounds (used to drop compensation
  predicates in view matching),
* per-column range hulls of a disjunction (§4.2 step 3's weakening, also
  applied to one query's cross-table ``OR``).
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from .evaluator import evaluate_predicate, placeholder
from .expressions import (
    FALSE,
    And,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expr,
    Literal,
    Or,
    canon_key,
    canon_sorted,
)
from ..types import DataType


def split_conjuncts(predicate: Optional[Expr]) -> List[Expr]:
    """Flatten a predicate into its top-level conjuncts."""
    if predicate is None:
        return []
    if isinstance(predicate, Literal) and predicate.value is True:
        return []
    if isinstance(predicate, And):
        result: List[Expr] = []
        for term in predicate.terms:
            result.extend(split_conjuncts(term))
        return result
    return [predicate]


def folded(conjunct: Expr) -> Optional[Expr]:
    """A table-less conjunct as its block applies it: None when it is TRUE,
    FALSE when it is FALSE or NULL (the block is empty), and the conjunct
    itself when a leaf is no literal — a scalar subquery, whose value only
    execution knows."""
    if any(not (isinstance(node, Literal) or node.children()) for node in conjunct.walk()):
        return conjunct
    return None if evaluate_predicate(conjunct, placeholder(1))[0] else FALSE


def column_equalities(conjuncts: Iterable[Expr]) -> List[Comparison]:
    """The conjuncts of form ``col = col``."""
    return [
        c for c in conjuncts
        if isinstance(c, Comparison) and c.is_column_equality
    ]


def non_equality_conjuncts(conjuncts: Iterable[Expr]) -> List[Expr]:
    """The conjuncts that are *not* column equalities (local filters etc.)."""
    return [
        c for c in conjuncts
        if not (isinstance(c, Comparison) and c.is_column_equality)
    ]


class EquivalenceClasses:
    """Union-find over column references (or any hashable keys).

    An equivalence class is a set of columns guaranteed equal in the result
    of an SPJ expression. Built from the ``col = col`` conjuncts.
    """

    def __init__(self) -> None:
        self._parent: Dict[Hashable, Hashable] = {}
        #: ``classes()`` and its member -> class index, kept until the next
        #: ``add_equality`` that unions two classes.
        self._classes: Optional[List[FrozenSet[Hashable]]] = None
        self._class_of: Dict[Hashable, FrozenSet[Hashable]] = {}

    # -- construction -----------------------------------------------------

    @classmethod
    def from_conjuncts(cls, conjuncts: Iterable[Expr]) -> "EquivalenceClasses":
        """Classes built from the column-equality conjuncts."""
        classes = cls()
        for conjunct in column_equalities(conjuncts):
            assert isinstance(conjunct, Comparison)
            classes.add_equality(conjunct.left, conjunct.right)
        return classes

    def add(self, item: Hashable) -> None:
        """Register a member without equating it to anything."""
        if item not in self._parent:
            self._parent[item] = item

    def add_equality(self, left: Hashable, right: Hashable) -> None:
        """Union the classes of ``left`` and ``right``."""
        self.add(left)
        self.add(right)
        root_left = self._find(left)
        root_right = self._find(right)
        if root_left != root_right:
            self._parent[root_right] = root_left
            self._classes = None

    def _find(self, item: Hashable) -> Hashable:
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        # Path compression.
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    # -- queries ------------------------------------------------------------

    def same_class(self, left: Hashable, right: Hashable) -> bool:
        """Whether two members are known equal."""
        if left not in self._parent or right not in self._parent:
            return left == right
        return self._find(left) == self._find(right)

    def classes(self) -> List[FrozenSet[Hashable]]:
        """All equivalence classes with at least two members (a cached
        list — callers iterate it, they do not mutate it)."""
        if self._classes is None:
            groups: Dict[Hashable, Set[Hashable]] = {}
            for item in self._parent:
                groups.setdefault(self._find(item), set()).add(item)
            self._classes = [
                frozenset(g) for g in groups.values() if len(g) >= 2
            ]
            self._class_of = {
                member: cls for cls in self._classes for member in cls
            }
        return self._classes

    def class_of(self, item: Hashable) -> FrozenSet[Hashable]:
        """All members known equal to ``item``."""
        self.classes()
        return self._class_of.get(item) or frozenset([item])

    def representative(self, item: Hashable) -> Hashable:
        """A canonical member of ``item``'s class (smallest by sort order)."""
        return min(self.class_of(item), key=canon_key)

    def __len__(self) -> int:
        return len(self.classes())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = [
            "{" + ", ".join(sorted(repr(m) for m in c)) + "}"
            for c in self.classes()
        ]
        return "EquivalenceClasses(" + ", ".join(sorted(parts)) + ")"


# -- range reasoning -----------------------------------------------------------


def range_parts(conjunct: Expr) -> Optional[Tuple[ColumnRef, ComparisonOp, object]]:
    """Decompose ``col op literal`` (either operand order) or return None."""
    if not isinstance(conjunct, Comparison):
        return None
    normalized = conjunct.normalized()
    if isinstance(normalized.left, ColumnRef) and isinstance(normalized.right, Literal):
        return (normalized.left, normalized.op, normalized.right.value)
    return None


def range_part(conjunct: Expr) -> Optional[Tuple[ColumnRef, ComparisonOp, Any]]:
    """``(column, op, value)`` of a ``column op number`` conjunct (either
    operand order; dates are numbers in engine form), else None."""
    part = range_parts(conjunct)
    return part if part is not None and is_number(part[2]) else None


def is_number(value: Any) -> bool:
    """Whether a literal value is a number (dates are numbers in engine
    form; a boolean is not)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


K = TypeVar("K")
#: A key's ``(low, low inclusive, high, high inclusive)``; None is unbounded.
Range = Tuple[Optional[float], bool, Optional[float], bool]


def range_bounds(parts: Iterable[Tuple[K, ComparisonOp, Any]]) -> Dict[K, Range]:
    """Per key, the tightest range the ``(key, op, number)`` bounds imply
    together (EQ bounds both sides)."""
    bounds: Dict[K, Range] = {}
    for key, op, value in parts:
        low, low_inc, high, high_inc = bounds.get(key, (None, True, None, True))
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
        bounds[key] = (low, low_inc, high, high_inc)
    return bounds


def range_hulls(
    alternatives: Sequence[Dict[K, Range]], keys: Iterable[K]
) -> List[Tuple[K, ComparisonOp, float]]:
    """The range hull of each of ``keys`` over ``alternatives`` (each a
    :func:`range_bounds` result): a low bound only when every alternative
    has one — the loosest, inclusive when any alternative at it is — and
    likewise a high bound. Every row some alternative admits passes the
    hull. Keys an alternative leaves unbounded get no hull."""
    hulls: List[Tuple[K, ComparisonOp, float]] = []
    for key in keys:
        ranges = [alternative.get(key) for alternative in alternatives]
        if any(r is None for r in ranges):
            continue
        lows = [r[0] for r in ranges]
        if all(low is not None for low in lows):
            low = min(lows)
            inclusive = any(r[1] for r in ranges if r[0] == low)
            hulls.append((key, ComparisonOp.GE if inclusive else ComparisonOp.GT, low))
        highs = [r[2] for r in ranges]
        if all(high is not None for high in highs):
            high = max(highs)
            inclusive = any(r[3] for r in ranges if r[2] == high)
            hulls.append((key, ComparisonOp.LE if inclusive else ComparisonOp.LT, high))
    return hulls


def hull_comparison(column: ColumnRef, op: ComparisonOp, value: float) -> Comparison:
    """A range hull bound as an ``Expr``: an integer literal on INT and DATE
    columns when the bound is whole, else a FLOAT literal."""
    value = float(value)
    if column.data_type in (DataType.INT, DataType.DATE) and value.is_integer():
        return Comparison(op, column, Literal(int(value), column.data_type))
    return Comparison(op, column, Literal(value, DataType.FLOAT))


def disjunction_hulls(conjunct: Expr) -> List[Tuple[ColumnRef, ComparisonOp, float]]:
    """The range hulls an ``OR`` over two or more tables implies, as
    ``(column, op, value)`` in canonical column order: one per bounded side
    of each column that every disjunct bounds by ``column op number``
    conjuncts. Each hull holds for every row the disjunction is TRUE for,
    so it filters that column's table ahead of the join the disjunction
    must wait for; other conjuncts yield none."""
    if not isinstance(conjunct, Or) or len(conjunct.tables()) < 2:
        return []
    alternatives = [
        range_bounds(filter(None, map(range_part, split_conjuncts(term))))
        for term in conjunct.terms
    ]
    columns = set(alternatives[0]).intersection(*alternatives[1:])
    return range_hulls(alternatives, canon_sorted(columns))


def bound_implies(
    spec: Tuple[Hashable, ComparisonOp, Any], gen: Tuple[Hashable, ComparisonOp, Any]
) -> bool:
    """Conservative implication between ``(key, op, value)`` bounds: whether
    ``key spec_op spec_value`` provably implies ``key gen_op gen_value``
    (keys are columns, or the ids the optimizer gives them)."""
    spec_col, spec_op, spec_val = spec
    gen_col, gen_op, gen_val = gen
    if spec_col != gen_col:
        return False
    try:
        less = spec_val < gen_val  # type: ignore[operator]
        greater = spec_val > gen_val  # type: ignore[operator]
        equal = spec_val == gen_val
    except TypeError:
        return False

    upper_ops = (ComparisonOp.LT, ComparisonOp.LE)
    lower_ops = (ComparisonOp.GT, ComparisonOp.GE)
    if spec_op in upper_ops and gen_op in upper_ops:
        if less:
            return True
        if equal:
            # col < v implies col < v and col <= v; col <= v implies col <= v.
            return not (spec_op is ComparisonOp.LE and gen_op is ComparisonOp.LT)
        return False
    if spec_op in lower_ops and gen_op in lower_ops:
        if greater:
            return True
        if equal:
            return not (spec_op is ComparisonOp.GE and gen_op is ComparisonOp.GT)
        return False
    if spec_op is ComparisonOp.EQ:
        if gen_op is ComparisonOp.EQ:
            return bool(equal)
        if gen_op is ComparisonOp.LT:
            return bool(less)
        if gen_op is ComparisonOp.LE:
            return bool(less or equal)
        if gen_op is ComparisonOp.GT:
            return bool(greater)
        if gen_op is ComparisonOp.GE:
            return bool(greater or equal)
        if gen_op is ComparisonOp.NE:
            return not equal
    return False
