"""Predicate utilities: conjuncts, equivalence classes, implication.

The paper's join-compatibility test (§4.1) and CSE construction (§4.2) both
operate on *column equivalence classes* derived from the column-equality
conjuncts of a normalized SPJ expression, following Goldstein & Larson's view
matching framework ([5] in the paper). This module implements:

* conjunct splitting / conjoining,
* :class:`EquivalenceClasses`: union-find over column references,
* simple implication tests between range conjuncts (used to simplify
  compensation predicates in view matching).
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .expressions import (
    And,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expr,
    Literal,
    Or,
    TRUE,
    canon_key,
)


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


def conjoin(conjuncts: Sequence[Expr]) -> Optional[Expr]:
    """Combine conjuncts back into a single predicate (None when empty)."""
    terms = [c for c in conjuncts if not (isinstance(c, Literal) and c.value is True)]
    if not terms:
        return None
    if len(terms) == 1:
        return terms[0]
    return And(tuple(terms))


def disjoin(disjuncts: Sequence[Optional[Expr]]) -> Optional[Expr]:
    """OR together predicates; a ``None`` member (always-true) absorbs all."""
    if any(d is None for d in disjuncts):
        return None
    unique: List[Expr] = []
    for term in disjuncts:
        assert term is not None
        if term not in unique:
            unique.append(term)
    if not unique:
        return None
    if len(unique) == 1:
        return unique[0]
    return Or(tuple(unique))


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


def implied_by_equalities(
    conjunct: Expr, classes: EquivalenceClasses
) -> bool:
    """Whether a column-equality conjunct is already implied by ``classes``."""
    if isinstance(conjunct, Comparison) and conjunct.is_column_equality:
        return classes.same_class(conjunct.left, conjunct.right)
    return False


def simplify_conjuncts(
    conjuncts: Sequence[Expr], classes: EquivalenceClasses
) -> List[Expr]:
    """Drop conjuncts implied by the equivalence classes (§4.2 step 2)."""
    return [c for c in conjuncts if not implied_by_equalities(c, classes)]


# -- range reasoning -----------------------------------------------------------


def range_parts(conjunct: Expr) -> Optional[Tuple[ColumnRef, ComparisonOp, object]]:
    """Decompose ``col op literal`` (either operand order) or return None."""
    if not isinstance(conjunct, Comparison):
        return None
    normalized = conjunct.normalized()
    if isinstance(normalized.left, ColumnRef) and isinstance(normalized.right, Literal):
        return (normalized.left, normalized.op, normalized.right.value)
    return None


def range_implies(specific: Expr, general: Expr) -> bool:
    """Conservative implication test between two range conjuncts.

    Returns ``True`` only when ``specific`` provably implies ``general``.
    Both must be ``col op literal`` conjuncts over the same column.
    """
    spec = range_parts(specific)
    gen = range_parts(general)
    if spec is None or gen is None:
        return False
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


def conjuncts_imply(
    specific: Sequence[Expr], general: Sequence[Expr],
    classes: Optional[EquivalenceClasses] = None,
) -> bool:
    """Whether the conjunct set ``specific`` implies every conjunct of
    ``general`` (conservative: syntactic match, equivalence-class match, or
    range implication)."""
    for needed in general:
        if classes is not None and implied_by_equalities(needed, classes):
            continue
        if any(
            have == needed or range_implies(have, needed)
            for have in specific
        ):
            continue
        return False
    return True


def always_true(predicate: Optional[Expr]) -> bool:
    """Whether the predicate is absent or the TRUE literal."""
    return predicate is None or predicate == TRUE
