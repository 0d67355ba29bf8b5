"""Conservative bag-semantics proofs by null-rejection reasoning.

An outer join is reduced to an inner join (:mod:`repro.logical.simplify`)
only when this module *proves* a post-join filter rejects every
null-extended row, by an abstract three-valued evaluation — the cheap
symbolic filter of the cheap-filter-then-verify pipeline (arXiv
2004.00481, GEqO); the 200-seed differential harness remains the
execution-level verdict. Anything the reasoning cannot settle is
``gave_up``, and a non-``proved`` verdict always keeps the outer join.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, FrozenSet, Sequence

from ..expr.expressions import And, Comparison, Expr, Literal, Not, Or, TableRef

PROVED = "proved"
REFUTED = "refuted"
GAVE_UP = "gave_up"


@dataclass(frozen=True)
class Verdict:
    """Outcome of one equivalence/containment proof attempt."""

    outcome: str  # proved | refuted | gave_up
    reason: str

    @property
    def proved(self) -> bool:
        return self.outcome == PROVED

    def __repr__(self) -> str:
        return f"{self.outcome}: {self.reason}"


# ---------------------------------------------------------------------------
# Null-rejection reasoning (abstract three-valued evaluation)
# ---------------------------------------------------------------------------

_ALL = frozenset({"T", "F", "N"})


def _abstract_truth(
    expr: Expr, null_tables: AbstractSet[TableRef]
) -> FrozenSet[str]:
    """Possible Kleene truth values of ``expr`` on a row where every column
    of ``null_tables`` is NULL and every other column is arbitrary
    (non-NULL). Conservative: unknown expression forms yield all three."""
    if isinstance(expr, Literal):
        if expr.value is True:
            return frozenset({"T"})
        if expr.value is False:
            return frozenset({"F"})
        return _ALL
    if isinstance(expr, Comparison):
        # A comparison whose either operand involves a NULL column is NULL;
        # otherwise it may be TRUE or FALSE.
        if any(c.table_ref in null_tables for c in expr.columns()):
            return frozenset({"N"})
        return frozenset({"T", "F"})
    if isinstance(expr, Not):
        inner = _abstract_truth(expr.term, null_tables)
        flipped = {"N" if v == "N" else ("F" if v == "T" else "T") for v in inner}
        return frozenset(flipped)
    if isinstance(expr, And):
        possible = frozenset({"T"})
        for term in expr.terms:
            term_vals = _abstract_truth(term, null_tables)
            possible = frozenset(
                _and3(a, b) for a in possible for b in term_vals
            )
        return possible
    if isinstance(expr, Or):
        possible = frozenset({"F"})
        for term in expr.terms:
            term_vals = _abstract_truth(term, null_tables)
            possible = frozenset(
                _or3(a, b) for a in possible for b in term_vals
            )
        return possible
    return _ALL


def _and3(a: str, b: str) -> str:
    if a == "F" or b == "F":
        return "F"
    if a == "N" or b == "N":
        return "N"
    return "T"


def _or3(a: str, b: str) -> str:
    if a == "T" or b == "T":
        return "T"
    if a == "N" or b == "N":
        return "N"
    return "F"


def null_rejecting(predicate: Expr, tables: AbstractSet[TableRef]) -> bool:
    """Whether ``predicate`` can never be TRUE on a row whose columns from
    ``tables`` are all NULL (so it rejects null-extended rows). Proved
    symbolically; False means "could not prove", not "accepts NULLs"."""
    if not any(c.table_ref in tables for c in predicate.columns()):
        return False
    return "T" not in _abstract_truth(predicate, tables)


def outer_join_reducible(
    ext_tables: AbstractSet[TableRef], filters: Sequence[Expr]
) -> Verdict:
    """Whether a LEFT OUTER extension is provably reducible to an inner
    join: some post-join filter must reject every null-extended row
    (the classical null-rejection simplification)."""
    for predicate in filters:
        touches = any(c.table_ref in ext_tables for c in predicate.columns())
        if touches and null_rejecting(predicate, ext_tables):
            return Verdict(
                PROVED,
                f"filter {predicate!r} is null-rejecting on the outer side",
            )
    if not filters:
        return Verdict(GAVE_UP, "no post-join filter constrains the outer side")
    return Verdict(GAVE_UP, "no post-join filter proved null-rejecting")
