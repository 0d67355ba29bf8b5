"""Unit tests for optimizer-engine internals: usage profiles, plan sets,
spool topological ordering, bundle utilities."""

import pytest

from repro import OptimizerOptions, Session
from repro.errors import OptimizerError
from repro.optimizer.assembly import _toposort_spools
from repro.optimizer.engine import Optimizer
from repro.optimizer.state import EMPTY_PROFILE, ProfileSpace
from repro.optimizer.physical import (
    PhysProject,
    PhysScan,
    PhysSpoolRead,
    PhysicalPlan,
)
from repro.expr.expressions import TableRef
from repro.workloads import complex_join_batch

from .assembly_reference import support, uses

SPACE = ProfileSpace(["E1", "E2", "E3"])


def _read(profile, cse_id):
    """``profile`` with one more read of ``cse_id``."""
    return SPACE.merge(profile, SPACE.bits(cse_id)[0])


class TestProfiles:
    def test_empty(self):
        assert EMPTY_PROFILE == 0
        assert uses(SPACE, EMPTY_PROFILE, "E1") == 0
        assert support(SPACE, EMPTY_PROFILE) == frozenset()

    def test_add_and_get(self):
        profile = _read(EMPTY_PROFILE, "E2")
        assert profile == 0b000010
        assert uses(SPACE, profile, "E2") == 1
        assert uses(SPACE, profile, "E1") == 0

    def test_add_caps_at_two(self):
        profile = EMPTY_PROFILE
        for _ in range(5):
            profile = _read(profile, "E1")
        assert profile == 0b001001  # "read >= 1" and "read >= 2"
        assert uses(SPACE, profile, "E1") == 2

    def test_merge_sums_and_caps(self):
        left = _read(EMPTY_PROFILE, "E1")
        right = _read(_read(EMPTY_PROFILE, "E1"), "E2")
        merged = SPACE.merge(left, right)
        assert uses(SPACE, merged, "E1") == 2
        assert uses(SPACE, merged, "E2") == 1
        twice = _read(_read(EMPTY_PROFILE, "E3"), "E3")
        assert SPACE.merge(twice, twice) == twice

    def test_merge_identity(self):
        profile = _read(_read(EMPTY_PROFILE, "E1"), "E1")
        assert SPACE.merge(profile, EMPTY_PROFILE) == profile
        assert SPACE.merge(EMPTY_PROFILE, profile) == profile

    def test_without(self):
        profile = _read(_read(_read(EMPTY_PROFILE, "E1"), "E1"), "E2")
        once, twice = SPACE.bits("E1")
        stripped = profile & ~(once | twice)
        assert uses(SPACE, stripped, "E1") == 0
        assert uses(SPACE, stripped, "E2") == 1

    def test_canonical_ordering(self):
        a = _read(_read(EMPTY_PROFILE, "E2"), "E1")
        b = _read(_read(EMPTY_PROFILE, "E1"), "E2")
        assert a == b  # one int per count vector, whatever the read order

    def test_support(self):
        profile = _read(_read(_read(EMPTY_PROFILE, "E1"), "E1"), "E3")
        assert support(SPACE, profile) == frozenset({"E1", "E3"})


class TestPlanSets:
    def test_large_plan_set_keeps_every_profile(self, small_db):
        """Heuristics off, the 8-table joins' plan sets pass 200 profiles;
        none is dropped for size (each plan set holds one plan per profile
        the search offered)."""
        options = OptimizerOptions(enable_heuristics=False)
        optimizer = Optimizer(small_db, options)
        batch = Session(small_db, options).bind(complex_join_batch())
        _, run = optimizer.optimize_with_run(batch)
        plan_sets = [*run.base_plans.values(), *run.step3_plans.values()]
        assert max(len(plans) for plans in plan_sets) > 200
        for plans in plan_sets:
            assert EMPTY_PROFILE in plans


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
