"""Unit tests for the candidate-subset enumeration oracle (paper §5.3,
Props 5.4-5.6)."""

from repro.optimizer.memo import Group

from .selection_reference import SubsetEnumerator, competing
from .selection_reference import synthetic_candidate as _candidate


class _FakeMemo:
    """A miniature group DAG for LCA/competing tests.

    Structure: root(0) -> a(1), b(2); a -> a1(3), a2(4); b -> b1(5).
    """

    def __init__(self):
        self.groups = []
        for gid in range(6):
            group = Group(
                gid=gid, kind="join", block=None, part_id="p",
                items=frozenset(), tables=frozenset(),
            )
            self.groups.append(group)
        self._desc = {
            0: {1, 2, 3, 4, 5},
            1: {3, 4},
            2: {5},
            3: set(),
            4: set(),
            5: set(),
        }

    def descendants(self, group):
        return self._desc[group.gid]


class TestCompeting:
    def test_same_lca_competes(self):
        memo = _FakeMemo()
        assert competing(_candidate("E1", 1), _candidate("E2", 1), memo)

    def test_ancestor_descendant_competes(self):
        memo = _FakeMemo()
        assert competing(_candidate("E1", 0), _candidate("E2", 1), memo)
        assert competing(_candidate("E1", 3), _candidate("E2", 1), memo)

    def test_siblings_independent(self):
        memo = _FakeMemo()
        assert not competing(_candidate("E1", 1), _candidate("E2", 2), memo)
        assert not competing(_candidate("E1", 3), _candidate("E2", 4), memo)


class TestEnumeration:
    def test_descending_size_order(self):
        memo = _FakeMemo()
        candidates = [_candidate("E1", 1), _candidate("E2", 1)]
        enum = SubsetEnumerator(candidates, memo)
        assert enum.next_subset() == frozenset({"E1", "E2"})
        enum.report(frozenset({"E1", "E2"}), frozenset({"E1", "E2"}))
        remaining = []
        while (s := enum.next_subset()) is not None:
            remaining.append(s)
        assert remaining == [frozenset({"E1"}), frozenset({"E2"})]

    def test_prop54_independent_set_stops_immediately(self):
        """Prop 5.4: after optimizing a fully independent set, every subset
        is redundant."""
        memo = _FakeMemo()
        candidates = [_candidate("E1", 1), _candidate("E2", 2)]
        enum = SubsetEnumerator(candidates, memo)
        full = enum.next_subset()
        enum.report(full, full)
        assert enum.next_subset() is None

    def test_interval_rule(self):
        """After optimizing S with plan using U, sets between U and S are
        skipped."""
        memo = _FakeMemo()
        candidates = [
            _candidate("E1", 1), _candidate("E2", 1), _candidate("E3", 1)
        ]
        enum = SubsetEnumerator(candidates, memo)
        full = enum.next_subset()
        enum.report(full, frozenset({"E1"}))
        seen = []
        while (s := enum.next_subset()) is not None:
            enum.report(s, frozenset())
            seen.append(s)
        # {E1,E2}, {E1,E3}, {E1} are inside the interval [ {E1}, full ].
        assert frozenset({"E1", "E2"}) not in seen
        assert frozenset({"E1", "E3"}) not in seen
        assert frozenset({"E1"}) not in seen
        assert frozenset({"E2", "E3"}) in seen

    def test_example1_pass_count(self):
        """Three mutually competing candidates where the full pass uses one:
        remaining passes are the subsets avoiding that one (paper Table 1's
        bracketed counts follow this arithmetic)."""
        memo = _FakeMemo()
        candidates = [
            _candidate(f"E{i}", 1) for i in range(1, 6)
        ]
        enum = SubsetEnumerator(candidates, memo, max_optimizations=128)
        full = enum.next_subset()
        enum.report(full, frozenset({"E4"}))
        count = 1
        while (s := enum.next_subset()) is not None:
            assert "E4" not in s or not s <= full  # interval honoured
            enum.report(s, frozenset())
            count += 1
            if count > 50:
                break
        # 1 (full) + subsets of the other four = 1 + 15 = 16 as an upper
        # bound; the empty-use reports prune further.
        assert count <= 16

    def test_max_optimizations_cap(self):
        memo = _FakeMemo()
        candidates = [_candidate(f"E{i}", 1) for i in range(1, 5)]
        enum = SubsetEnumerator(candidates, memo, max_optimizations=3)
        seen = 0
        while enum.next_subset() is not None:
            seen += 1
        assert seen == 3

    def test_large_candidate_sets_curated(self):
        memo = _FakeMemo()
        candidates = [_candidate(f"E{i}", 1) for i in range(1, 20)]
        enum = SubsetEnumerator(candidates, memo, max_optimizations=500)
        first = enum.next_subset()
        assert len(first) == 19
        enum.report(first, frozenset({"E1"}))
        # Generation stays cheap and bounded.
        count = 1
        while enum.next_subset() is not None:
            count += 1
        assert count <= 39 + 1
