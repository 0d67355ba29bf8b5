"""Table signatures (paper §3, Definition 3.1 and Figure 2).

A table signature ``S_e = [G_e; T_e]`` exists iff ``e`` is an SPJG
expression: ``G_e`` records whether ``e`` contains a group-by, ``T_e`` the
source tables. Signatures are the fast filter for detecting potentially
sharable expressions: *expressions with different table signatures cannot be
computed from a common covering subexpression*.

Two implementation notes:

* ``T_e`` is a **multiset** of base-table names (a sorted tuple). Definition
  3.1 says "set"; for queries without self-joins the two coincide, and the
  multiset keeps a self-join ``A ⋈ A`` from spuriously matching a single
  reference to ``A`` (see DESIGN.md).
* Delta tables (view maintenance, §6.4) contribute the distinguished name
  ``delta(<base>)``, exactly matching the paper's "we treat the delta table
  as a special table when generating table signatures".

Figure 2's rules are applied group by group as the optimizer's memo is built
(:mod:`repro.optimizer.memo`): a join group over plain tables is signed when
it is created, an aggregation group when its γ is placed over one.

=============== ================================================
Operator        Table signature
=============== ================================================
Table/View t    ``[F; {t}]``
Select σ(e)     ``S_e``                       if ``G_e = F``
Project π(e)    ``S_e``   (transparent; see below)
Join e1 ⋈ e2    ``[F; T_e1 ∪ T_e2]``          if ``G_e1 = G_e2 = F``
GroupBy γ(e)    ``[T; T_e]``                  if ``G_e = F``
(other cases)   no signature (``None``)
=============== ================================================

Figure 2 lists the Project rule with a ``G_e = F`` guard, but §3's own
example assigns ``π γ(σ(A) ⋈ σ(B))`` the signature ``[T; {A, B}]``: a
projection cannot change what a covering subexpression could compute, so it
is signature-transparent. A memo group carries no projection, so the rule
never needs applying. A join group with a pre-aggregated input is one of
the "other cases" and stays unsigned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Tuple

from ..expr.expressions import TableRef


@dataclass(frozen=True, order=True)
class TableSignature:
    """``[G; T]``: group-by flag plus a sorted multiset of table names."""

    has_groupby: bool
    tables: Tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tables", tuple(sorted(self.tables)))

    @classmethod
    def of_tables(
        cls, table_refs: Iterable[TableRef], has_groupby: bool = False
    ) -> "TableSignature":
        """Signature from table instances (uses signature names)."""
        return cls(
            has_groupby=has_groupby,
            tables=tuple(sorted(t.signature_name for t in table_refs)),
        )

    @property
    def table_count(self) -> int:
        """Number of table references (multiset size)."""
        return len(self.tables)

    def covers_tables_of(self, other: "TableSignature") -> bool:
        """Multiset inclusion of ``other``'s tables in ours (containment
        checking, Def 4.2, first condition)."""
        remaining = list(self.tables)
        for name in other.tables:
            try:
                remaining.remove(name)
            except ValueError:
                return False
        return True

    def __repr__(self) -> str:
        flag = "T" if self.has_groupby else "F"
        return f"[{flag}; {{{', '.join(self.tables)}}}]"

