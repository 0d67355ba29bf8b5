"""Unit tests for the greedy Step-3 oracle (Roy et al., cs/9910021) on
synthetic cost surfaces: ``greedy_select`` sees the engine only through
``run_pass``, so a dict from enabled subsets to plan costs stands in for
the optimizer."""

from typing import Dict, FrozenSet, List

import pytest

from .selection_reference import definition_benefit, greedy_select
from .selection_reference import synthetic_candidate as _candidate

BASE = 1000.0


class Surface:
    """``run_pass`` over a fixed cost table; records every call."""

    def __init__(self, costs: Dict[FrozenSet[str], float]) -> None:
        self.costs = costs
        self.calls: List[FrozenSet[str]] = []

    def __call__(self, subset: FrozenSet[str]):
        self.calls.append(subset)
        return self.costs[subset], subset, subset


def _ids(*names: str) -> FrozenSet[str]:
    return frozenset(names)


def _select(candidates, surface, max_evaluations=64, picks=None):
    return greedy_select(
        candidates, BASE, frozenset(), surface, max_evaluations, picks
    )


def test_heap_is_seeded_with_the_definition_bound():
    # n·C_E − (C_E + C_W + n·C_R): 2·60 − 60 = 60, 3·40 − 40 − 3·5 = 65,
    # 2·30 − 30 = 30 — E2 has the largest bound and is evaluated first.
    e1 = _candidate("E1", consumers=2, body=60.0)
    e2 = _candidate("E2", consumers=3, body=40.0, read=5.0)
    e3 = _candidate("E3", consumers=2, body=30.0)
    assert [definition_benefit(c) for c in (e1, e2, e3)] == [60.0, 65.0, 30.0]
    surface = Surface({
        _ids("E2"): BASE - 64.0,
        _ids("E2", "E1"): BASE - 64.0 - 59.0,
        _ids("E2", "E1", "E3"): BASE - 64.0 - 59.0 - 29.0,
    })
    cost, bundle = _select([e1, e2, e3], surface)
    # E2's true benefit (64) still tops every other seed, so it is
    # accepted after one pass; each later pick also costs one pass.
    assert surface.calls == [
        _ids("E2"), _ids("E2", "E1"), _ids("E2", "E1", "E3"),
    ]
    assert (cost, bundle) == (BASE - 152.0, _ids("E1", "E2", "E3"))


def test_stale_entries_are_re_evaluated_against_the_selection():
    a = _candidate("A", consumers=2, body=100.0)  # bound 100
    b = _candidate("B", consumers=2, body=90.0)  # bound 90
    surface = Surface({
        _ids("A"): BASE - 50.0,
        _ids("B"): BASE - 40.0,
        # B's marginal benefit shrinks to 30 once A is selected.
        _ids("A", "B"): BASE - 80.0,
    })
    picks = []
    cost, bundle = _select([a, b], surface, picks=picks)
    # B was evaluated alone before A's acceptance made that stale; it is
    # evaluated again with A enabled, never against the old selection.
    assert surface.calls == [_ids("A"), _ids("B"), _ids("A", "B")]
    assert (cost, bundle) == (BASE - 80.0, _ids("A", "B"))
    assert picks == [
        {"cse_id": "A", "benefit": 50.0, "cost": BASE - 50.0, "rank": 1,
         "evaluations": 2},
        {"cse_id": "B", "benefit": 30.0, "cost": BASE - 80.0, "rank": 2,
         "evaluations": 3},
    ]


def test_stops_at_the_first_fresh_maximum_that_does_not_pay():
    a = _candidate("A", consumers=2, body=100.0)  # bound 100
    # bound 1·10 − (10 + 20) = −20: below A's fresh benefit of −10.
    d = _candidate("D", consumers=1, body=10.0, write=20.0)
    surface = Surface({_ids("A"): BASE + 10.0})
    cost, bundle = _select([a, d], surface)
    # A's fresh benefit is the heap maximum and is negative: nothing
    # below it can pay, so D is never evaluated and the base plan stays.
    assert surface.calls == [_ids("A")]
    assert (cost, bundle) == (BASE, frozenset())


def test_ties_break_on_candidate_id():
    e2 = _candidate("E2", consumers=2, body=50.0)
    e1 = _candidate("E1", consumers=2, body=50.0)
    surface = Surface({
        _ids("E1"): BASE - 20.0,
        _ids("E2"): BASE - 20.0,
        _ids("E1", "E2"): BASE - 40.0,
    })
    picks = []
    _select([e2, e1], surface, picks=picks)
    assert surface.calls[:2] == [_ids("E1"), _ids("E2")]
    assert [pick["cse_id"] for pick in picks] == ["E1", "E2"]


@pytest.mark.parametrize("max_evaluations", [0, 1, 2, 3])
def test_never_exceeds_max_evaluations(max_evaluations):
    candidates = [
        _candidate(f"E{i}", consumers=2, body=10.0 * (i + 1))
        for i in range(5)
    ]
    # Every candidate helps, a little less with each already selected.
    costs = {}
    for mask in range(1, 1 << 5):
        subset = frozenset(f"E{i}" for i in range(5) if mask >> i & 1)
        costs[subset] = BASE - 10.0 * len(subset) + len(subset) ** 2
    surface = Surface(costs)
    cost, _ = _select(candidates, surface, max_evaluations)
    assert len(surface.calls) <= max_evaluations
    if max_evaluations == 0:
        assert cost == BASE


def test_one_greedy_pick_event_per_acceptance():
    """One pick record per accepted candidate, and none otherwise."""
    candidates = [
        _candidate(f"E{i}", consumers=2, body=10.0 * (i + 1))
        for i in range(4)
    ]
    # E0 and E1 pay; E2 and E3 raise the cost whatever else is enabled.
    costs = {}
    for mask in range(1, 1 << 4):
        subset = frozenset(f"E{i}" for i in range(4) if mask >> i & 1)
        costs[subset] = BASE - 5.0 * len(subset & _ids("E0", "E1")) + (
            7.0 * len(subset & _ids("E2", "E3"))
        )
    surface = Surface(costs)
    picks = []
    cost, bundle = _select(candidates, surface, picks=picks)
    assert sorted(p["cse_id"] for p in picks) == ["E0", "E1"] == sorted(bundle)
    assert [p["rank"] for p in picks] == [1, 2]
    assert picks[-1]["cost"] == cost == BASE - 10.0
