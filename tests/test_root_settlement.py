"""The batch root settles its CSEs inside the fold by §5.2's rule.

``assembly.assemble`` settles each root candidate (cross-query or stacked,
§5.5) right after the last top that can read it, once every root candidate
whose body can read it is settled: a plan that reads it once is discarded,
one that reads it twice or more pays a body plan plus ``C_W``. The
differential below checks, on the engine's Step-3 pass and on every pass
of the §5.3 enumeration oracle (``tests/selection_reference.py``) with at
most 8 root-settled candidates, that this costs exactly what the
exhaustive 2^k activation search of ``tests/assembly_reference.py``
finds."""

from __future__ import annotations

from operator import itemgetter
from types import SimpleNamespace

import pytest

from repro import OptimizerOptions, Session
from repro.optimizer import engine
from repro.optimizer.assembly import _charge
from repro.optimizer.search import Search
from repro.optimizer.state import OptimizerStats, ProfileSpace
from repro.workloads import adapted_batch, example1_with_q4, scaleup_batch

from .assembly_reference import reference_root_cost
from .selection_reference import reference_select
from .test_stacked import STACKED_SQL

BATCHES = {
    **{f"scaleup{n}": (scaleup_batch(n, seed=0), True) for n in range(2, 11)},
    "stacked": (STACKED_SQL, True),
    "example1_with_q4": (example1_with_q4(), True),
    "tpch_all": (adapted_batch(), True),
    "tpch_all_no_heuristics": (adapted_batch(), False),
}


def checked_passes(db, monkeypatch, sql, heuristics=True):
    """Optimize ``sql`` by the engine and by the enumeration oracle,
    comparing every assembled pass with ≤ 8 root candidates against the
    exhaustive root search; returns the number of root candidates of each
    pass compared."""
    assemble = engine.assemble
    compared = []

    def checking(search, ctx):
        cost, bundle = assemble(search, ctx)
        if len(ctx.root_cses) <= 8:
            want = reference_root_cost(search, ctx)
            assert cost == pytest.approx(want, rel=1e-9, abs=0.0), (
                sorted(c.cse_id for c in ctx.enabled)
            )
            compared.append(len(ctx.root_cses))
        return cost, bundle

    monkeypatch.setattr(engine, "assemble", checking)
    options = OptimizerOptions(enable_heuristics=heuristics)
    Session(db, options).optimize(sql)
    reference_select(db, sql, options, ("paper",), assemble=checking)
    return compared


@pytest.mark.parametrize("name", list(BATCHES))
def test_fold_matches_exhaustive_root_search(small_db, monkeypatch, name):
    sql, heuristics = BATCHES[name]
    compared = checked_passes(small_db, monkeypatch, sql, heuristics)
    assert compared
    if name in ("stacked", "example1_with_q4", "tpch_all_no_heuristics"):
        assert max(compared) >= 2



def test_root_close_discards_only_the_single_use_profile():
    """Settling E1 over {0: a, once: b, once|twice: c}: b reads the spool
    once and is the one plan discarded; a reads it never and passes
    through; c pays the body plus C_W and, cheaper than a, is the one
    entry left."""
    space = ProfileSpace(["E1"])
    run = SimpleNamespace(stats=OptimizerStats(), sc_discards={}, profiles=space)
    search = Search(run, None, None, None, None, lambda: None)
    once, twice = space.bits("E1")
    entries = {
        0: (10.0, ("a",), ()),
        once: (1.0, ("b",), ()),
        once | twice: (4.0, ("c",), ()),
    }
    charge = _charge(space.merge, "E1", [(0, 3.0, "body")])
    settled = search.settle(entries, "E1", itemgetter(0), charge)
    assert settled == {0: (7.0, ("c",), (("E1", "body"),))}
    assert run.stats.single_consumer_discards == 1
    assert run.sc_discards == {"E1": 1}
