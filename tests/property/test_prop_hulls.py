"""Property tests for a cross-table disjunction's range hulls
(:func:`repro.expr.predicates.disjunction_hulls`), the single-table filters
the optimizer pushes to the scans below the join the disjunction filters.

Soundness: on generated two-table disjunctions over generated rows (NULLs
included), every row the disjunction keeps passes each hull. Shape: no hull
comes from a single-table disjunction, and no column some disjunct leaves
unbounded gets a hull on that side — checked against the expression-space
range oracle in ``tests/cse_reference.py``.
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.expr.evaluator import evaluate_predicate
from repro.expr.expressions import (
    And,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Literal,
    Or,
    TableRef,
)
from repro.expr.predicates import disjunction_hulls, hull_comparison
from repro.types import DataType

from ..cse_reference import _range_bounds

A = TableRef("a", 1)
B = TableRef("b", 2)
COLUMNS = [
    ColumnRef(A, "x", DataType.INT),
    ColumnRef(A, "y", DataType.FLOAT),
    ColumnRef(B, "z", DataType.INT),
    ColumnRef(B, "d", DataType.DATE),
]
OPS = list(ComparisonOp)

literals = st.one_of(
    st.integers(-6, 6).map(Literal),
    st.sampled_from([-2.5, 0.5, 3.0, 4.75]).map(Literal),
)


@st.composite
def range_conjuncts(draw, columns=COLUMNS):
    column = draw(st.sampled_from(columns))
    literal = draw(literals)
    if column.data_type is DataType.DATE:
        literal = Literal(int(literal.value), column.data_type)
    op = draw(st.sampled_from(OPS))
    if draw(st.booleans()):
        return Comparison(op, column, literal)
    return Comparison(op, literal, column)  # the literal on the left


@st.composite
def disjuncts(draw, columns=COLUMNS):
    terms = draw(st.lists(range_conjuncts(columns), min_size=1, max_size=4))
    if draw(st.integers(0, 4)) == 0:
        # A conjunct that bounds nothing: a column-to-column comparison.
        terms.append(Comparison(ComparisonOp.LT, columns[0], columns[-1]))
    return terms[0] if len(terms) == 1 else And(tuple(terms))


@st.composite
def cross_table_disjunctions(draw):
    terms = draw(st.lists(disjuncts(), min_size=2, max_size=4, unique=True))
    return Or(tuple(terms))


def _frame(values):
    """Rows of ``a × b`` pairs; a column with a NULL (NaN) is float-widened."""
    frame = {}
    for column in COLUMNS:
        array = np.array(values[column.column], dtype=float)
        if column.data_type is not DataType.FLOAT and not np.isnan(array).any():
            array = array.astype(np.int64)
        frame[column] = array
    return frame


column_values = st.lists(
    st.one_of(st.integers(-8, 8).map(float), st.just(float("nan"))),
    min_size=12, max_size=12,
)


@given(
    cross_table_disjunctions(),
    st.fixed_dictionaries({c.column: column_values for c in COLUMNS}),
)
@settings(max_examples=300, deadline=None)
def test_every_row_the_disjunction_keeps_passes_its_hulls(disjunction, values):
    frame = _frame(values)
    kept = evaluate_predicate(disjunction, frame)
    for column, op, value in disjunction_hulls(disjunction):
        hull = hull_comparison(column, op, value)
        passes = evaluate_predicate(hull, frame)
        assert not (kept & ~passes).any(), (disjunction, hull)


@given(cross_table_disjunctions())
@settings(max_examples=300, deadline=None)
def test_hulls_need_a_bound_from_every_disjunct(disjunction):
    per_disjunct = [
        _range_bounds(term.terms if isinstance(term, And) else [term])
        for term in disjunction.terms
    ]
    for column, op, value in disjunction_hulls(disjunction):
        low_side = op in (ComparisonOp.GE, ComparisonOp.GT)
        sides = [bounds.get(column) for bounds in per_disjunct]
        assert all(side is not None for side in sides)
        limits = [side[0] if low_side else side[2] for side in sides]
        assert all(limit is not None for limit in limits)
        # The hull is the loosest of them: some disjunct reaches it.
        assert value == (min(limits) if low_side else max(limits))
    bounded = {
        (column, low_side)
        for column in COLUMNS
        for low_side in (True, False)
        if all(
            bounds.get(column) is not None
            and bounds[column][0 if low_side else 2] is not None
            for bounds in per_disjunct
        )
    }
    derived = {
        (column, op in (ComparisonOp.GE, ComparisonOp.GT))
        for column, op, _ in disjunction_hulls(disjunction)
    }
    assert derived == (bounded if len(disjunction.tables()) >= 2 else set())


@given(st.lists(disjuncts(COLUMNS[:2]), min_size=2, max_size=4, unique=True))
@settings(max_examples=150, deadline=None)
def test_a_single_table_disjunction_has_no_hull(terms):
    assert disjunction_hulls(Or(tuple(terms))) == []
