"""Unit tests for table signatures (paper §3, Definition 3.1, Figure 2)."""

from repro.cse.signature import TableSignature
from repro.expr.expressions import TableRef

A = TableRef("A", 1)


class TestTableSignature:
    def test_tables_sorted(self):
        sig = TableSignature(False, ("B", "A"))
        assert sig.tables == ("A", "B")

    def test_equality(self):
        assert TableSignature(True, ("A", "B")) == TableSignature(True, ("B", "A"))
        assert TableSignature(True, ("A",)) != TableSignature(False, ("A",))

    def test_multiset_semantics(self):
        """Self-join A ⋈ A is distinct from a single reference to A."""
        assert TableSignature(False, ("A", "A")) != TableSignature(False, ("A",))

    def test_covers_tables_of(self):
        wide = TableSignature(False, ("A", "B", "C"))
        narrow = TableSignature(True, ("A", "B"))
        assert wide.covers_tables_of(narrow)
        assert not narrow.covers_tables_of(wide)
        # multiset inclusion: {A,A} not covered by {A,B}
        double = TableSignature(False, ("A", "A"))
        assert not wide.covers_tables_of(double)
        assert TableSignature(False, ("A", "A", "B")).covers_tables_of(double)

    def test_of_tables_uses_signature_names(self):
        delta = TableRef("customer", 5, is_delta=True)
        sig = TableSignature.of_tables([delta, A])
        assert sig.tables == ("A", "delta(customer)")
