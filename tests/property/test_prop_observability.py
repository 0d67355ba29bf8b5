"""Property suite for the observability layer: differential correctness
plus metrics invariants over generated SPJG batches.

For 200 seed-determined batches from :func:`repro.workloads.generator.
random_spjg_batch`, every configuration of ``tests/matrix.py`` must
(a) return exactly the reference oracle's rows and (b) produce
spool/registry accounting consistent with the paper's sharing rules:

* a spool is only ever materialized for a *kept* CSE — plans discarded by
  the single-consumer rule (§5.2) never execute a spool write;
* every kept CSE is read at least twice per materialization (sharing needs
  at least two consumers to pay for the spool);
* the producer's row count equals the rows delivered to *each* consumer
  read (spools never truncate or duplicate);
* the registry's ``executor.*`` counters mirror the execution metrics.

The configurations of one batch are also compared with each other
(``check_across``), and every §5.1 consumer match the runs make is held
to the expression-space matcher of ``tests/match_reference.py``. A batch
another suite already ran under a configuration is not run again.
"""

import pytest

from repro.workloads.generator import random_spjg_batch

from ..matrix import DEFAULT, check_input

BATCH_COUNT = 200
CHUNK = 10


def check_batch(seed: int) -> int:
    """Every invariant under every configuration; returns the number of
    kept CSEs the default configuration executed."""
    return check_input(f"spjg_{seed}", random_spjg_batch(seed))[DEFAULT.name]


@pytest.mark.parametrize("chunk", range(0, BATCH_COUNT, CHUNK))
def test_observability_invariants(chunk):
    for seed in range(chunk, chunk + CHUNK):
        check_batch(seed)


def test_generator_exercises_sharing():
    """The seed range must actually cover the interesting case: a healthy
    number of batches keep at least one CSE (guards against a generator
    regression quietly turning the suite into a no-op)."""
    assert sum(check_batch(seed) for seed in range(0, 60)) >= 5
