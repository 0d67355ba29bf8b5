"""The CSE manager (paper §2.2, Figure 1).

During normal optimization, every memo group with a table signature is
registered here (Step 1). The manager maintains a hash table from signatures
to the groups carrying them. When the CSE optimization phase begins, the
manager reports the signature buckets referencing two or more groups — the
*potentially sharable* expressions (first half of Step 2).

The overhead of registration is one dictionary insert per group, matching the
paper's observation that the mechanism is too cheap to measure when no
sharing exists.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ..obs import active_journal
from ..optimizer.memo import Group
from .signature import TableSignature


class CseManager:
    """Hash table from table signatures to registered memo groups."""

    def __init__(self) -> None:
        self._buckets: Dict[TableSignature, List[Group]] = {}
        self.registrations = 0

    def register(self, group: Group) -> None:
        """Record one group under its signature (no-op for signature-less
        groups)."""
        if group.signature is None:
            return
        self.registrations += 1
        self._buckets.setdefault(group.signature, []).append(group)

    def register_all(self, groups: Iterable[Group]) -> None:
        """Register every group in creation order."""
        for group in groups:
            self.register(group)

    def sharable_buckets(self) -> List[Tuple[TableSignature, List[Group]]]:
        """Signature buckets referencing at least two distinct groups with
        pairwise-disjoint table instances — only such groups can co-occur in
        one final plan and therefore share a computed result."""
        journal = active_journal()
        result: List[Tuple[TableSignature, List[Group]]] = []
        for signature, groups in sorted(
            self._buckets.items(), key=lambda kv: kv[0]
        ):
            if len(groups) < 2:
                continue
            sharable = self._has_disjoint_pair(groups)
            journal.event(
                "bucket",
                signature=repr(signature),
                groups=len(groups),
                sharable=sharable,
            )
            if sharable:
                result.append((signature, list(groups)))
        return result

    @staticmethod
    def _has_disjoint_pair(groups: List[Group]) -> bool:
        for i, first in enumerate(groups):
            for second in groups[i + 1:]:
                if not (first.tables & second.tables):
                    return True
        return False
