"""Property suite for the widened SQL surface (outer / semi / anti joins).

200 deterministic seeds of :func:`repro.workloads.generator.random_sql_batch`
— LEFT OUTER JOIN, EXISTS / NOT EXISTS, IN / NOT IN, NULL-heavy projections,
mixed with plain SPJG queries — are run under the engine configurations of
``tests/matrix.py`` and compared against the reference oracle, plus sharing
invariants on the spools they materialize. Two deterministic batches pin
the headline sharing scenarios: a shared semi-join build side across two
EXISTS consumers, and a reduced outer join sharing a plain inner-join spool.

Failing cases are written (input, configuration, detail; one file each) to
the directory named by the ``REPRO_PROP_FAILURE_DIR`` environment variable
when it is set, so CI can upload them as artifacts.
"""

import pytest

from repro.workloads.generator import random_sql_batch

from ..matrix import (
    DEADLINE,
    DEFAULT,
    NAIVE,
    NAMED,
    NO_CSE,
    NO_HEURISTICS,
    SPOOL_BUDGET,
    check_input,
)

SEEDS = 200
CHUNK = 20


def _chunk_seeds(chunk):
    return range(chunk * CHUNK, (chunk + 1) * CHUNK)


class TestWidenedDifferential:
    @pytest.mark.parametrize("chunk", range(SEEDS // CHUNK))
    def test_all_modes_match_oracle(self, chunk):
        """Rows equal the oracle's under every optimizer configuration,
        and every §5.1 consumer match the runs make equals the
        expression-space matcher's (``tests/match_reference.py``)."""
        for seed in _chunk_seeds(chunk):
            check_input(
                f"widened_{seed}",
                random_sql_batch(seed),
                (DEFAULT, NO_HEURISTICS, NO_CSE, NAIVE),
            )


class TestWidenedSharingInvariants:
    @pytest.mark.parametrize("chunk", range(SEEDS // CHUNK))
    def test_spool_reads_match_writes(self, chunk):
        """Every spool read returns exactly the rows the producer wrote,
        sharing never raises the estimate over the no-CSE baseline, and
        the budget fallbacks never change results: a spool-budget fallback
        plans what the default plans and executes byte-identically to the
        no-CSE baseline."""
        for seed in _chunk_seeds(chunk):
            check_input(
                f"widened_{seed}",
                random_sql_batch(seed),
                (DEFAULT, NO_CSE, SPOOL_BUDGET, DEADLINE),
            )


class TestWidenedSharingScenarios:
    @pytest.mark.parametrize("name", ["exists-pair", "reduced-pair"])
    def test_batch_shares_one_spool_across_consumers(self, name):
        kept = check_input(name, NAMED[name])
        assert kept[DEFAULT.name] >= 1, "expected a multi-consumer spool"
