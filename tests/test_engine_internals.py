"""Unit tests for optimizer-engine internals: usage profiles, planset caps,
spool topological ordering, bundle utilities."""

import pytest

from repro.errors import OptimizerError
from repro.logical.blocks import OutputColumn
from repro.optimizer.assembly import _toposort_spools
from repro.optimizer.search import _cap_planset
from repro.optimizer.state import (
    EMPTY_PROFILE,
    PlanChoice,
    _profile_add,
    _profile_get,
    _profile_merge,
    _profile_support,
    _profile_without,
)
from repro.optimizer.physical import (
    PhysProject,
    PhysScan,
    PhysSpoolRead,
    PhysicalPlan,
)
from repro.expr.expressions import TableRef


class TestProfiles:
    def test_empty(self):
        assert _profile_get(EMPTY_PROFILE, "E1") == 0
        assert _profile_support(EMPTY_PROFILE) == frozenset()

    def test_add_and_get(self):
        profile = _profile_add(EMPTY_PROFILE, "E1")
        assert _profile_get(profile, "E1") == 1
        assert _profile_get(profile, "E2") == 0

    def test_add_caps_at_two(self):
        profile = EMPTY_PROFILE
        for _ in range(5):
            profile = _profile_add(profile, "E1")
        assert _profile_get(profile, "E1") == 2

    def test_merge_sums_and_caps(self):
        left = _profile_add(EMPTY_PROFILE, "E1")
        right = _profile_add(_profile_add(EMPTY_PROFILE, "E1"), "E2")
        merged = _profile_merge(left, right)
        assert _profile_get(merged, "E1") == 2
        assert _profile_get(merged, "E2") == 1

    def test_merge_identity(self):
        profile = _profile_add(EMPTY_PROFILE, "E1")
        assert _profile_merge(profile, EMPTY_PROFILE) == profile
        assert _profile_merge(EMPTY_PROFILE, profile) == profile

    def test_without(self):
        profile = _profile_add(_profile_add(EMPTY_PROFILE, "E1"), "E2")
        stripped = _profile_without(profile, "E1")
        assert _profile_get(stripped, "E1") == 0
        assert _profile_get(stripped, "E2") == 1

    def test_canonical_ordering(self):
        a = _profile_add(_profile_add(EMPTY_PROFILE, "E2"), "E1")
        b = _profile_add(_profile_add(EMPTY_PROFILE, "E1"), "E2")
        assert a == b  # sorted tuples: order of insertion irrelevant

    def test_support(self):
        profile = _profile_add(_profile_add(EMPTY_PROFILE, "E1"), "E2")
        assert _profile_support(profile) == frozenset({"E1", "E2"})


class TestCapPlanset:
    def _plans(self, count):
        plans = {}
        for i in range(count):
            profile = _profile_add(EMPTY_PROFILE, f"E{i}")
            plans[profile] = PlanChoice(float(i), PhysicalPlan())
        plans[EMPTY_PROFILE] = PlanChoice(999.0, PhysicalPlan())
        return plans

    def test_under_limit_unchanged(self):
        plans = self._plans(5)
        assert _cap_planset(plans, 100) is plans

    def test_over_limit_keeps_cheapest(self):
        plans = self._plans(50)
        capped = _cap_planset(plans, 10)
        assert len(capped) <= 10
        cheapest = _profile_add(EMPTY_PROFILE, "E0")
        assert cheapest in capped

    def test_base_plan_always_survives(self):
        plans = self._plans(50)  # EMPTY is the most expensive
        capped = _cap_planset(plans, 10)
        assert EMPTY_PROFILE in capped


class TestToposortSpools:
    def _body(self, reads=()):
        table = TableRef("region", 1)
        child: PhysicalPlan = PhysScan(table, (), ())
        for cse_id in reads:
            child = PhysSpoolRead(cse_id, ())
        return PhysProject(child, ())

    def test_independent_order_preserved(self):
        spools = (("A", self._body()), ("B", self._body()))
        assert [c for c, _ in _toposort_spools(spools)] == ["A", "B"]

    def test_dependency_ordering(self):
        spools = (("outer", self._body(reads=["inner"])), ("inner", self._body()))
        ordered = [c for c, _ in _toposort_spools(spools)]
        assert ordered.index("inner") < ordered.index("outer")

    def test_external_reads_ignored(self):
        # Reading a spool that is not among the definitions is fine.
        spools = (("A", self._body(reads=["zzz"])),)
        assert [c for c, _ in _toposort_spools(spools)] == ["A"]

    def test_cycle_detected(self):
        spools = (
            ("A", self._body(reads=["B"])),
            ("B", self._body(reads=["A"])),
        )
        with pytest.raises(OptimizerError):
            _toposort_spools(spools)


class TestBundleUtilities:
    def test_used_cses_dedup_and_order(self, small_session):
        from repro.workloads import example1_batch

        result = small_session.optimize(example1_batch())
        used = result.bundle.used_cses()
        assert used == sorted(set(used), key=used.index)

    def test_describe_contains_all_queries(self, small_session):
        from repro.workloads import example1_batch

        result = small_session.optimize(example1_batch())
        text = result.bundle.describe()
        for query in result.bundle.queries:
            assert f"{query.name}:" in text
