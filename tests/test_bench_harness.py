"""Tests for the benchmark harness."""

import pytest

from repro.bench.harness import (
    MODE_CSE,
    MODE_NO_CSE,
    MODE_NO_HEURISTICS,
    ScenarioResult,
    format_table,
    options_for,
    run_mode,
    run_scenario,
    speedup,
)
from repro.workloads import example1_batch


class TestOptions:
    def test_modes(self):
        assert options_for(MODE_NO_CSE).enable_cse is False
        assert options_for(MODE_CSE).enable_cse is True
        assert options_for(MODE_NO_HEURISTICS).enable_heuristics is False

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            options_for("bogus")


class TestRunners:
    def test_run_mode(self, tiny_db):
        result = run_mode(tiny_db, example1_batch(), MODE_CSE)
        assert result.candidates >= 1
        assert result.est_cost > 0
        assert result.exec_cost > 0
        import re

        assert re.fullmatch(r"\d+ \[\d+\]", result.cses_cell)

    def test_no_cse_cell(self, tiny_db):
        result = run_mode(tiny_db, example1_batch(), MODE_NO_CSE)
        assert result.cses_cell == "N/A"

    def test_run_scenario_and_speedup(self, tiny_db):
        results = run_scenario(
            tiny_db, example1_batch(), modes=(MODE_NO_CSE, MODE_CSE)
        )
        assert [r.mode for r in results] == [MODE_NO_CSE, MODE_CSE]
        assert speedup(results) > 1.0

    def test_format_table(self, tiny_db):
        results = run_scenario(
            tiny_db, example1_batch(), modes=(MODE_NO_CSE, MODE_CSE)
        )
        text = format_table("Table X", results, {"note": "ref"})
        assert "Table X" in text
        assert "# of CSEs [CSE Opts]" in text
        assert "N/A" in text
        assert "paper reference: note: ref" in text
        # Columns align: every row has the same number of separators.
        lines = [l for l in text.splitlines() if "|" in l]
        assert len({l.count("|") for l in lines}) == 1


class TestPhaseTimers:
    def test_phases_sum_to_total(self, tiny_db):
        """bench.optimize_seconds + bench.execute_seconds account for
        bench.total_seconds up to a small tolerance (timer entry/exit and
        snapshot overhead)."""
        result = run_mode(tiny_db, example1_batch(), MODE_CSE)
        phases = result.phase_seconds
        assert set(phases) == {
            "bench.total_seconds", "bench.optimize_seconds",
            "bench.execute_seconds",
        }
        total = phases["bench.total_seconds"]
        parts = (
            phases["bench.optimize_seconds"] + phases["bench.execute_seconds"]
        )
        assert parts <= total
        # Tolerance: 10% of total plus 5ms of fixed overhead.
        assert total - parts <= 0.10 * total + 0.005, phases

    def test_reported_times_come_from_registry(self, tiny_db):
        result = run_mode(tiny_db, example1_batch(), MODE_CSE)
        phases = result.phase_seconds
        assert result.optimization_time == phases["bench.optimize_seconds"]
        assert result.exec_time == phases["bench.execute_seconds"]
        histograms = result.snapshot["histograms"]
        assert histograms["bench.total_seconds"]["count"] == 1

    def test_snapshot_counters_and_q_error(self, tiny_db):
        result = run_mode(tiny_db, example1_batch(), MODE_CSE)
        assert result.counter("optimizer.candidates_generated") >= 1
        assert result.counter("executor.spools_materialized") >= 1
        assert result.exec_cost == result.counter("executor.cost_units")
        assert result.q_error_max >= result.q_error_mean >= 1.0

