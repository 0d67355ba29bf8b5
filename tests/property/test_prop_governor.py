"""Property: governor degradation never changes results.

For random join-chain batches, an execute whose spool budget forces the
no-sharing fallback must return exactly the rows of an ``enable_cse=False``
session (the same baseline plan, byte-identical) and the rows of the
reference oracle; an execute whose optimizer deadline expires degrades
and still returns the oracle's rows. This is the operational form of the
paper's guarantee that the no-sharing plan is always a valid plan. The
checks are ``tests/matrix.py``'s, over its budget configurations.
"""

from hypothesis import HealthCheck, given, settings

from ..matrix import (
    DEADLINE,
    DEFAULT,
    NO_CSE,
    SPOOL_BUDGET,
    check_input,
    hypothesis_batch,
)


class TestGovernorFallback:
    @given(hypothesis_batch())
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_forced_fallback_matches_baseline_and_oracle(self, sql):
        check_input("spool_budget", sql, (DEFAULT, NO_CSE, SPOOL_BUDGET))

    @given(hypothesis_batch())
    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_optimizer_deadline_fallback_matches_oracle(self, sql):
        check_input("deadline", sql, (DEADLINE,))
