"""Shared fixtures: small TPC-H databases and sessions.

The tiny scale factor keeps every test fast while preserving the TPC-H
cardinality ratios the optimizer's decisions depend on. Databases are built
once per session and shared; tests that mutate data build their own.
"""

from __future__ import annotations

import threading

import pytest

from repro import OptimizerOptions, Session
from repro.catalog.tpch import build_tpch_database

TINY_SF = 0.001
SMALL_SF = 0.002


def run_split_across_sessions(
    db, sql, coordinator, collect_op_stats=False, **session_kwargs
):
    """Split ``sql``'s statements alternately over two sessions behind
    ``coordinator`` and execute both halves concurrently, so they meet in
    one window. Returns ``(halves, outcomes)``; an outcome is ``None``
    when its thread raised or hung."""
    statements = [part for part in sql.split(";") if part.strip()]
    halves = [";".join(statements[0::2]), ";".join(statements[1::2])]
    outcomes = [None, None]

    def consume(index):
        session = Session(
            db, OptimizerOptions(), coordinator=coordinator, **session_kwargs
        )
        outcomes[index] = session.execute(
            halves[index], collect_op_stats=collect_op_stats
        )

    threads = [
        threading.Thread(target=consume, args=(i,), daemon=True)
        for i in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    return halves, outcomes


@pytest.fixture(scope="session")
def tiny_db():
    """A shared, read-only TPC-H database at SF=0.001."""
    return build_tpch_database(scale_factor=TINY_SF)


@pytest.fixture(scope="session")
def small_db():
    """A shared, read-only TPC-H database at SF=0.002."""
    return build_tpch_database(scale_factor=SMALL_SF)


@pytest.fixture()
def tiny_session(tiny_db):
    return Session(tiny_db, OptimizerOptions())


@pytest.fixture()
def small_session(small_db):
    return Session(small_db, OptimizerOptions())


@pytest.fixture()
def no_cse_session(small_db):
    return Session(small_db, OptimizerOptions(enable_cse=False))


@pytest.fixture()
def no_heuristics_session(small_db):
    return Session(small_db, OptimizerOptions(enable_heuristics=False))
