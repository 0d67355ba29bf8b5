"""The benchmark's own tests. Run with ``PYTHONPATH=src python3 -m pytest
benchmarks/perf``; tier-1 (``testpaths = ["tests"]``) does not collect them.

Everything that runs the engine goes through ``run.py --smoke`` in a
subprocess, exactly as a user or the driver would start it.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import workloads as wl  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
SINGLE_SESSION = ["fig8_cold", "fig8_warm", "tpch_single"]
NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: counts that must repeat exactly from run to run.
EXACT = ["executor.cost_units", "optimizer.memo_groups",
         "cse.candidates_generated"]


def smoke(tmp_path: Path, tag: str, *extra: str) -> dict:
    out = tmp_path / f"{tag}.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--all", "--smoke", "--seed",
         "3", "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def results(tmp_path_factory) -> dict:
    """One ``--all --smoke --trace`` set: untraced and traced runs."""
    return smoke(tmp_path_factory.mktemp("perf"), "first", "--trace")


def test_contract_lists_the_benchmark():
    assert CONTRACT["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in CONTRACT["workloads"]] == wl.WORKLOADS
    assert "setup_s" in {m["name"] for m in CONTRACT["end_to_end"]}
    for metric in CONTRACT["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25


def test_every_metric_is_emitted_with_a_unit(results):
    for kind, key in (("runs", "end_to_end"), ("traced", "per_layer")):
        wanted = {m["name"]: m["unit"] for m in CONTRACT[key]}
        for workload in wl.WORKLOADS:
            (record,) = results[kind][workload]
            assert record["correct"] and record["failed"] == 0
            assert record["attempted"] >= 1
            emitted = record["metrics"]
            assert set(emitted) == set(wanted), workload
            for name, metric in emitted.items():
                assert NAME.fullmatch(name)
                assert metric["unit"] == wanted[name]
                assert isinstance(metric["value"], (int, float))


def test_end_to_end_metrics_are_never_zero(results):
    for workload in wl.WORKLOADS:
        (record,) = results["runs"][workload]
        for name, metric in record["metrics"].items():
            assert metric["value"] > 0, (workload, name)


def test_every_result_is_stamped(results):
    for workload in wl.WORKLOADS:
        stamp = results["runs"][workload][0]["stamp"]
        for key in ("commit", "python", "numpy", "nproc", "clients",
                    "scale_factor", "ops", "seed", "samples"):
            assert key in stamp, key


def test_generation_is_a_pure_function_of_the_seed():
    tpch = [f"select {i} from t" for i in range(8)]
    for workload in wl.WORKLOADS:
        spec = wl.SPECS[workload]
        ops = wl.op_count(spec, CONTRACT["run_seconds"])
        assert ops >= 100
        first = wl.generate(workload, 5, ops, 2, tpch).texts()
        again = wl.generate(workload, 5, ops, 2, tpch).texts()
        other = wl.generate(workload, 6, ops, 2, tpch).texts()
        assert first == again
        assert first != other
    assert wl.customer_rows(5, 0) == wl.customer_rows(5, 0)
    assert wl.customer_rows(5, 0) != wl.customer_rows(6, 0)
    assert wl.customer_rows(5, 0)[0][0] != wl.customer_rows(5, 1)[0][0]


def test_fig8_batches_are_distinct_but_do_equal_work():
    plan = wl.generate("fig8_cold", 9, 100, 2, [])
    assert len(set(plan.ops)) == len(plan.ops)
    cuts = {
        tuple(sorted(re.findall(r"o_orderdate < '([0-9-]+)'", "".join(b))))
        for b in plan.ops
    }
    assert len(cuts) == 1  # every batch holds the same multiset of cut-offs


def test_trace_decomposition_is_valid(results):
    for workload in SINGLE_SESSION:
        metrics = results["traced"][workload][0]["metrics"]
        assert metrics["bench.layer_sum_ratio"]["value"] >= 0.90
        assert 0.9 <= metrics["bench.trace_overhead_ratio"]["value"] <= 1.1


def test_workloads_stress_what_they_were_chosen_for(results):
    traced = {w: results["traced"][w][0]["metrics"] for w in wl.WORKLOADS}

    def value(workload, name):
        return traced[workload][name]["value"]

    assert value("fig8_cold", "serve.plan_cache_hit_ratio") == 0
    assert value("fig8_cold", "cse.candidates_generated") > 0
    assert value("fig8_warm", "serve.plan_cache_hit_ratio") == 1.0
    assert value("fig8_warm", "optimizer.optimize_ms") == 0
    assert value("fig8_warm", "executor.spools_materialized") > 0
    assert value("tpch_single", "cse.candidates_generated") == 0
    assert value("tpch_single", "executor.spools_materialized") == 0
    assert value("serve_mixed", "serve.coordinator.merged_ratio") >= 0.9
    assert value("serve_mixed", "serve.coordinator.spools_leaked") == 0
    assert value("serve_mixed", "serve.plan_cache_invalidations") >= 1
    assert value("serve_mixed", "views.maintain_ms") > 0


def test_counts_repeat_exactly(results, tmp_path):
    again = smoke(tmp_path, "second", "--report")
    for workload in SINGLE_SESSION:
        first = results["traced"][workload][0]["metrics"]
        second = again["traced"][workload][0]["metrics"]
        for name in EXACT:
            assert first[name]["value"] == second[name]["value"], name
        layers = again["traced"][workload][0]["stamp"]["layers"]
        assert layers == sorted(layers, key=lambda row: -row["share"])


def test_trace_file_has_spans(results):
    lines = (HERE / "out" / "trace_fig8_cold.jsonl").read_text().splitlines()
    spans = [json.loads(line) for line in lines]
    assert {"id", "name", "op_id", "parent", "start", "end"} <= set(spans[0])
    ops = {s["id"] for s in spans if s["name"] == "op"}
    assert ops and all(
        s["parent"] in ops for s in spans if s["name"] != "op"
    )


def test_nothing_to_run_outside_a_checkout(tmp_path):
    """With only BENCHMARK.json and benchmarks/perf present the command
    exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "perf",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "fig8_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not done.stdout.strip()


# -- compare.py -----------------------------------------------------------------


def _set(values_by_metric: dict, failed: int = 0) -> dict:
    runs = [
        {"attempted": 100, "failed": failed, "metrics": {
            name: {"value": values[i], "unit": "x"}
            for name, values in values_by_metric.items()
        }}
        for i in range(len(next(iter(values_by_metric.values()))))
    ]
    return {"stamp": {"commit": "x"},
            "runs": {w: runs for w in wl.WORKLOADS}}


def _verdicts(base: dict, candidate: dict) -> dict:
    return {
        (row["workload"], row["metric"]): row["verdict"]
        for row in compare.compare(base, candidate, CONTRACT)
    }


STEADY = {"setup_s": [1.0, 1.0, 1.0], "queries_per_s": [50.0, 50.5, 49.5],
          "batch_ms_p50": [10.0, 10.1, 9.9], "batch_ms_p90": [20.0, 20.2, 19.8],
          "peak_rss_mb": [100.0, 100.0, 100.0]}


def test_compare_same_numbers_are_ok():
    verdicts = _verdicts(_set(STEADY), _set(STEADY))
    assert set(verdicts.values()) == {"ok"}
    assert ("fig8_cold", "error_rate") in verdicts


def test_compare_flags_a_regression_in_either_direction():
    slower = dict(STEADY, batch_ms_p50=[11.5, 11.6, 11.4],
                  queries_per_s=[40.0, 40.0, 40.0])
    verdicts = _verdicts(_set(STEADY), _set(slower))
    assert verdicts["fig8_warm", "batch_ms_p50"] == "regressed"
    assert verdicts["fig8_warm", "queries_per_s"] == "regressed"
    assert verdicts["fig8_warm", "batch_ms_p90"] == "ok"
    faster = dict(STEADY, batch_ms_p50=[5.0, 5.0, 5.0])
    assert _verdicts(_set(STEADY), _set(faster))[
        "fig8_warm", "batch_ms_p50"] == "ok"


def test_compare_wide_spread_is_unresolved_and_failures_regress():
    noisy = dict(STEADY, batch_ms_p50=[8.0, 10.0, 12.0])
    assert _verdicts(_set(noisy), _set(STEADY))[
        "tpch_single", "batch_ms_p50"] == "unresolved"
    assert _verdicts(_set(STEADY), _set(STEADY, failed=1))[
        "serve_mixed", "error_rate"] == "regressed"
