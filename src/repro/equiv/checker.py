"""Conservative bag-semantics equivalence checking.

The sharing machinery admits rewrites over the widened SQL surface (outer,
semi, and anti joins) only when this module *proves* them sound under bag
semantics. The checker is the cheap symbolic filter in the
cheap-filter-then-verify pipeline (arXiv 2004.00481, GEqO): syntactic
normalization over slot assignments, mutual predicate implication via
``expr/predicates``, and null-rejection reasoning over an abstract
three-valued evaluation. The 200-seed differential harness remains the
execution-level verdict.

Every query is ``refuted`` only on structural certainties (different table
multisets, different aggregation shape); anything the reasoning cannot
settle is ``gave_up`` — and a non-``proved`` verdict always falls back to
exact-match sharing, never to an ambitious rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..expr.expressions import (
    AggExpr,
    And,
    ColumnRef,
    Comparison,
    Expr,
    Literal,
    Not,
    Or,
    TableRef,
)
from ..expr.predicates import (
    EquivalenceClasses,
    conjuncts_imply,
    implied_by_equalities,
    range_implies,
)
from ..logical.blocks import QueryBlock

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


# ---------------------------------------------------------------------------
# Block-level bag equivalence
# ---------------------------------------------------------------------------


def _slot_map(
    a: QueryBlock, b: QueryBlock
) -> Optional[Dict[TableRef, TableRef]]:
    """Map b's table instances onto a's via the shared slot assignment, or
    None when the table multisets differ."""
    from ..cse.compatibility import slot_assignment

    slots_a = slot_assignment(a.tables)
    slots_b = slot_assignment(b.tables)
    by_slot = {slot: tref for tref, slot in slots_a.items()}
    if set(by_slot) != set(slots_b.values()):
        return None
    return {tref: by_slot[slot] for tref, slot in slots_b.items()}


def _remap(expr: Expr, table_map: Dict[TableRef, TableRef]) -> Expr:
    mapping: Dict[Expr, Expr] = {}
    for col in expr.columns():
        target = table_map.get(col.table_ref)
        if target is not None:
            mapping[col] = ColumnRef(target, col.column, col.data_type)
    return expr.substitute(mapping)


def blocks_equivalent(a: QueryBlock, b: QueryBlock) -> Verdict:
    """Conservative bag-semantics equivalence of two SPJ(G) blocks.

    ``proved`` requires: identical table multisets (up to instance renaming
    along slot assignment), mutually implying predicate conjunct sets, and
    identical grouping keys, aggregates, and outputs after renaming.
    """
    table_map = _slot_map(a, b)
    if table_map is None:
        return Verdict(REFUTED, "different table multisets")

    b_conjuncts = [_remap(c, table_map) for c in b.conjuncts]
    a_conjuncts = list(a.conjuncts)
    classes_a = EquivalenceClasses.from_conjuncts(a_conjuncts)
    classes_b = EquivalenceClasses.from_conjuncts(b_conjuncts)
    if not conjuncts_imply(a_conjuncts, b_conjuncts, classes_a):
        return Verdict(GAVE_UP, "left predicate does not provably imply right")
    if not conjuncts_imply(b_conjuncts, a_conjuncts, classes_b):
        return Verdict(GAVE_UP, "right predicate does not provably imply left")

    if a.has_groupby != b.has_groupby:
        return Verdict(REFUTED, "one side aggregates, the other does not")
    if a.has_groupby:
        keys_b = {_remap(k, table_map) for k in b.group_keys}
        if set(a.group_keys) != keys_b:
            return Verdict(REFUTED, "different grouping keys")
        aggs_b = {_remap(agg, table_map) for agg in b.aggregates}
        if set(a.aggregates) != aggs_b:
            return Verdict(REFUTED, "different aggregate sets")

    if len(a.output) != len(b.output):
        return Verdict(REFUTED, "different output arity")
    for out_a, out_b in zip(a.output, b.output):
        if out_a.expr != _remap(out_b.expr, table_map):
            return Verdict(GAVE_UP, f"output {out_a.name} differs")
    return Verdict(PROVED, "table multiset, predicate, shape all match")


# ---------------------------------------------------------------------------
# Consumer-match containment obligations
# ---------------------------------------------------------------------------


def check_consumer_match(definition, group, info) -> Verdict:
    """Independently re-derive the §5.1 view-matching obligations for one
    consumer group against a CSE definition, under bag semantics.

    Every obligation the matcher relies on is re-proved here: slot-set
    equality, joint-equality implication, covering-predicate containment,
    residual-column availability, and (for aggregated CSEs) grouping
    containment. The substitution is row-for-row, so bag semantics is
    preserved exactly when containment holds — duplicate-sensitive
    consumers (semi/anti build sides) are safe because deduplication
    happens in the consuming join operator, not the spool.
    """
    from ..cse.compatibility import (
        consumer_conjuncts,
        consumer_table_map,
        remap_expr,
        slot_assignment,
    )

    if group.signature != definition.signature:
        return Verdict(REFUTED, "table signature mismatch")
    body_by_slot = {
        slot: tref
        for tref, slot in slot_assignment(definition.block.tables).items()
    }
    consumer_slots = set(slot_assignment(group.tables).values())
    if consumer_slots != set(body_by_slot):
        return Verdict(REFUTED, "slot multiset mismatch")
    table_map = consumer_table_map(group, body_by_slot)
    mapped = [remap_expr(c, table_map) for c in consumer_conjuncts(group, info)]
    classes = EquivalenceClasses.from_conjuncts(mapped)

    for equality in definition.joint_equalities:
        if not implied_by_equalities(equality, classes):
            return Verdict(
                GAVE_UP, f"joint equality {equality!r} not implied by consumer"
            )
    for covering in definition.covering_conjuncts:
        if not any(
            have == covering or range_implies(have, covering) for have in mapped
        ):
            return Verdict(
                GAVE_UP, f"covering conjunct {covering!r} not implied by consumer"
            )

    available = {
        o.expr for o in definition.outputs if isinstance(o.expr, ColumnRef)
    }
    for conjunct in mapped:
        if implied_by_equalities(conjunct, definition.joint_classes):
            continue
        if any(
            guaranteed == conjunct or range_implies(guaranteed, conjunct)
            for guaranteed in definition.covering_conjuncts
        ):
            continue
        if not conjunct.columns() <= available:
            return Verdict(
                GAVE_UP, f"residual {conjunct!r} references unavailable columns"
            )

    if definition.has_groupby:
        mapped_keys = set()
        for key in group.agg_keys:
            mapped_key = remap_expr(key, table_map)
            if not isinstance(mapped_key, ColumnRef):
                return Verdict(GAVE_UP, "consumer grouping key is not a column")
            mapped_keys.add(mapped_key)
        if not mapped_keys <= set(definition.group_keys):
            return Verdict(GAVE_UP, "consumer keys not contained in CSE keys")
        for out in group.agg_outs:
            if not isinstance(out, AggExpr):
                return Verdict(GAVE_UP, f"non-aggregate output {out!r}")
            if remap_expr(out, table_map) not in set(definition.aggregates):
                return Verdict(
                    GAVE_UP, f"aggregate {out!r} not computed by the CSE"
                )
    else:
        for expr in group.required_outputs:
            if not remap_expr(expr, table_map).columns() <= available:
                return Verdict(
                    GAVE_UP, f"required output {expr!r} not in CSE output"
                )
    return Verdict(PROVED, "containment obligations all proved")
