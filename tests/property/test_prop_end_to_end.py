"""Property-based end-to-end test: for random join-chain batches, every
engine configuration of ``tests/matrix.py`` produces plans whose results
equal the oracle's.

This is the library's strongest invariant: exploiting similar
subexpressions — with any combination of heuristics, stacking, cost modes,
workers, shared scans, plan caching and budgets — must never change query
results.
"""

from hypothesis import HealthCheck, given, settings

from ..matrix import DEFAULT, chain_query, check_input, hypothesis_batch


class TestRandomBatches:
    @given(hypothesis_batch())
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_all_modes_match_oracle(self, sql):
        check_input("end_to_end", sql)

    @given(chain_query())
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_identical_twin_queries_share(self, sql):
        """A batch of two identical queries must produce the oracle's rows
        twice — and the CSE plan may serve both from one spool."""
        check_input("twins", sql + ";" + sql, (DEFAULT,))
