"""200-seed differential suite: a default session must return the
row-at-a-time reference oracle's rows.

Every seed-determined SPJG batch runs through a default :class:`Session`
(CSE sharing and shared table scans on), warm from its plan cache as well
as cold, and is held to ``tests/matrix.py``'s invariants against the
cached oracle rows. Handcrafted empty-result, NULL-extension and ORDER-BY
scenarios, which the generator rarely produces, run under every matrix
configuration.

The module and test names date from when this suite also compared a
morsel-streamed fused pipeline path against the operator-at-a-time one;
that path is gone and the names are kept so the suite's test ids stay
stable.
"""

from __future__ import annotations

import pytest

from repro.workloads import random_spjg_batch

from ..matrix import DEFAULT, NAMED, check_input

SEED_COUNT = 200
CHUNK = 25

#: handcrafted shapes the generator rarely produces: empty results,
#: single-row results, NULL-extended outer-join columns, and an ORDER BY
#: over a NULL-extended key.
HANDCRAFTED = [NAMED["empty"], NAMED["outer-order-by"], NAMED["single-row"]]


@pytest.mark.parametrize("chunk", range(0, SEED_COUNT, CHUNK))
def test_differential_at_production_morsel(chunk):
    for seed in range(chunk, chunk + CHUNK):
        check_input(f"spjg_{seed}", random_spjg_batch(seed), (DEFAULT,))


@pytest.mark.parametrize("sql", HANDCRAFTED)
def test_handcrafted_scenarios(sql):
    check_input("handcrafted", sql)
