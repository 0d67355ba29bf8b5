"""Property suite: cross-session merging is invisible except for speed.

For 100 seed-determined pairs of random SPJG queries, each query is
submitted from its *own* session through a shared coordinator whose
window is long enough that the pair always meets in one group. Three
results must agree under the one row comparator of ``tests/rows.py``:

* the coordinator-merged execution of each query,
* the same query executed on an isolated session (no coordinator),
* the reference oracle's rows (cached per statement by
  ``tests/matrix.py``).

Each pair is checked against both Step-3 oracles of
``tests/selection_reference.py`` (200 cases) but run through the
coordinator once: the plan the coordinator optimized for the pair costs
what §5.3's subset enumeration finds, with the same used CSEs, and no
more than Roy et al.'s greedy selection finds.

Merging is opportunistic — pairs with disjoint table signatures run solo
by design — so the suite also asserts the coordinator actually merged a
healthy fraction of the pairs, and that every published spool was freed.
"""

from __future__ import annotations

import pytest

from ..matrix import check_step3, random_pair, recorded, run_pair

SEEDS = range(100)
#: the Step-3 oracle each case's plan is checked against.
REFERENCES = ("paper", "greedy")

#: seed -> ``run_pair``'s result, until every reference has checked it.
_RUNS = {}
#: merged windows observed per reference, asserted non-trivial at the end.
_MERGED = {reference: 0 for reference in REFERENCES}


@pytest.mark.parametrize("reference", REFERENCES)
@pytest.mark.parametrize("seed", SEEDS)
def test_merged_equals_isolated_equals_oracle(seed, reference):
    sql = ";\n".join(random_pair(seed))
    with recorded(f"pair_{seed}", sql, f"coordinator, {reference}"):
        if seed not in _RUNS:
            _RUNS[seed] = [run_pair(seed), set(REFERENCES)]
        (plans, merged), pending = _RUNS[seed]
        pending.discard(reference)
        if not pending:
            del _RUNS[seed]
        check_step3(reference, plans)
    _MERGED[reference] += merged


@pytest.mark.parametrize("reference", REFERENCES)
def test_merging_happened_for_a_healthy_fraction(reference):
    # Runs after the parametrized sweep (pytest collection order): random
    # SPJG pairs draw from three overlapping join chains, so well over
    # half the seeds must have produced an actual merge.
    assert _MERGED[reference] >= len(SEEDS) // 2
