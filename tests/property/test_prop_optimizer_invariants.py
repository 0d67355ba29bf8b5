"""Property-based optimizer invariants on random workloads.

* CSE exploitation never *increases* the estimated cost (it may always fall
  back to the base plan).
* The default configuration returns exactly the oracle's rows on OR / IN /
  BETWEEN predicates and min / max / count aggregates.
* Estimated and measured cost of the no-CSE plan stay within one units
  band of each other.

The checks are ``tests/matrix.py``'s.
"""

from hypothesis import HealthCheck, given, settings

from repro import OptimizerOptions, Session

from ..matrix import DB, DEFAULT, NO_CSE, chain_query, check_input


class TestOptimizerInvariants:
    @given(chain_query(), chain_query())
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_cse_never_increases_estimate(self, q1, q2):
        sql = q1 + ";" + q2
        base = Session(DB, OptimizerOptions(enable_cse=False)).optimize(sql)
        shared = Session(DB).optimize(sql)
        assert shared.est_cost <= base.est_cost + 1e-6

    @given(chain_query(), chain_query())
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_rich_predicates_match_oracle(self, q1, q2):
        check_input("rich_predicates", q1 + ";" + q2, (DEFAULT,))

    @given(chain_query())
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_estimate_and_measurement_use_same_units(self, q):
        """The units band of ``check_across``: estimate and measurement
        share formulas; only cardinality estimation separates them."""
        check_input("units", q, (NO_CSE,))
