"""The differential matrix's own checks.

``tests/matrix.py`` runs inputs under an explicit list of engine
configurations, :data:`~tests.matrix.CONFIGS`, against one cached oracle;
the property suites beside this module feed it their inputs. This module
holds what belongs to the matrix itself:

* the two named sharing scenarios no older suite pinned — a range
  compensation and a self-join's two instances — under every
  configuration;
* the seeded wrong §5.1 matches of ``tests/match_reference.py``, each of
  which the matrix must refute from result rows alone;
* :func:`test_matrix_covers_every_setting`, which holds the configuration
  list against the live settings of ``Session``, ``OptimizerOptions`` and
  the ablation constants: each is on an axis or in
  :data:`LEFT_TO_OTHER_CHECKS`.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import re

import pytest

from repro import OptimizerOptions, Session
from repro.optimizer import options as options_module

from .. import match_reference
from ..matrix import CONFIGS, DEFAULT, NAMED, check_input

#: settings dedicated suites vary instead of :data:`CONFIGS`, and where.
OTHER_AXES = {
    "coordinator": "tests/property/test_prop_coordinator.py",
    "database": "tests/property/test_prop_plan_cache.py and "
    "tests/property/test_prop_maintenance.py",
}

#: settings no configuration varies, and the check that covers each.
LEFT_TO_OTHER_CHECKS = {
    "registry": "a sink; every configuration passes one for the executor.* check",
    "tracer": "a sink; tests/test_obs.py and tests/test_trace_golden.py",
    "query_log": "a sink; tests/test_telemetry.py",
    "governor": "admission control only; tests/test_governor.py",
    "cost_model": "the cost formulas; tests/test_cost.py and tests/test_api.py",
    "PREAGG": "eager pre-aggregation; benchmarks/bench_ablation.py",
    "DYNAMIC_LCA": "§5.2 dynamic LCA; tests/test_paper_scenarios.py",
    "STACKED": "§5.5 stacked CSEs; tests/test_stacked.py",
    "ALPHA": "Heuristic 1's threshold; benchmarks/bench_ablation.py",
    "BETA": "Heuristic 4's threshold; benchmarks/bench_ablation.py",
}

#: settings the property suites varied before they fed this matrix; each
#: must stay on an axis.
OLD_SUITE_AXES = {
    "options", "enable_cse", "enable_heuristics", "NAIVE_COST_SPLIT",
    "plan_cache_size", "coordinator", "database",
}

# -- named inputs ------------------------------------------------------------


@pytest.mark.parametrize("name", ["range-pair", "self-join-pair"])
def test_named_inputs(name):
    kept = check_input(name, NAMED[name])
    assert kept[DEFAULT.name] >= 1, f"{name} shares no spool"


@pytest.mark.parametrize("mutant", list(match_reference.MUTANTS))
def test_seeded_wrong_matches_are_refuted(mutant, monkeypatch):
    """Each seeded wrong match fails the check on a named input, from the
    row comparison alone: no match oracle is recording here."""
    monkeypatch.delenv("REPRO_PROP_FAILURE_DIR", raising=False)
    match_reference.install_mutant(monkeypatch, mutant)
    refuted = []
    for name, sql in NAMED.items():
        try:
            check_input(name, sql, match_oracle=False)
        except AssertionError as error:
            assert "rows differ from the oracle" in str(error), error
            refuted.append(name)
    assert refuted, f"{mutant} passed every named input"


# -- coverage of the configuration space -----------------------------------------


def ablation_constants():
    """The module constants ``optimizer/options.py`` lists, by name."""
    found = {}
    pattern = r":data:`(repro(?:\.\w+)+)\.([A-Z_]+)`(?:\s*/\s*``([A-Z_]+)``)?"
    for module, *names in re.findall(pattern, options_module.__doc__):
        for name in filter(None, names):
            found[name] = getattr(importlib.import_module(module), name)
    return found


def live_settings():
    session = set(inspect.signature(Session.__init__).parameters) - {"self"}
    fields = {f.name for f in dataclasses.fields(OptimizerOptions)}
    return session | fields | set(ablation_constants())


def matrix_axes():
    """Every setting some configuration moves off its default."""
    axes = set(OTHER_AXES)
    default = OptimizerOptions()
    for config in CONFIGS:
        axes |= set(config.session)
        options = config.session.get("options", default)
        axes |= {
            f.name for f in dataclasses.fields(OptimizerOptions)
            if getattr(options, f.name) != getattr(default, f.name)
        }
        if config.naive_cost_split:
            axes.add("NAIVE_COST_SPLIT")
    return axes


def test_matrix_covers_every_setting():
    live, axes, others = live_settings(), matrix_axes(), set(LEFT_TO_OTHER_CHECKS)
    assert not live - axes - others, f"unchecked settings: {live - axes - others}"
    assert not axes & others, f"on an axis and left to others: {axes & others}"
    assert not others - live, f"stale entries: {others - live}"
    assert OLD_SUITE_AXES <= axes

