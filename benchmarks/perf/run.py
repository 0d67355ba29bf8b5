"""The repo's one performance benchmark (see README.md beside this file).

One workload, the way ``BENCHMARK.json``'s driver calls it::

    python3 benchmarks/perf/run.py --workload fig8_cold --seed 7 \\
        --seconds 15 --trace 0

prints every metric by name with its unit, then — as the last line of
standard output — one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``). Exit code 1 when any output was
wrong.

Every workload, each in its own subprocess, one after the other::

    python3 benchmarks/perf/run.py --all --seed 7 [--repeat K] [--trace]
        [--report] [--smoke] [--out PATH]

writes the result set to ``benchmarks/perf/out/results.json`` (or
``--out``); ``compare.py`` compares two such sets.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

#: BLAS/OpenMP pools would add threads the client-count rule does not know
#: about; pinned before numpy is imported, and inherited by the children.
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--all", action="store_true",
                        help="run every workload, each in a subprocess")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed interval "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced run (per-layer metrics)")
    parser.add_argument("--smoke", action="store_true",
                        help="SF=0.002 and a handful of ops: a wiring check")
    parser.add_argument("--repeat", type=int, default=1,
                        help="with --all: runs per workload (seed, seed+1, …)")
    parser.add_argument("--report", action="store_true",
                        help="with --all: traced runs, then the layer tables")
    parser.add_argument("--out", type=Path, default=None,
                        help="with --all: where to write the result set")
    args = parser.parse_args(argv)
    if bool(args.workload) == args.all:
        parser.error("give exactly one of --workload NAME and --all")
    return args


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- one workload, in this process -------------------------------------------------


def commit_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_workload(args: argparse.Namespace) -> int:
    os.environ.update(THREAD_PINS)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"engine source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    from repro.workloads import ADAPTED_QUERIES

    import harness
    import workloads as wl

    if args.workload not in wl.SPECS:
        print(f"unknown workload {args.workload!r}; one of {wl.WORKLOADS}",
              file=sys.stderr)
        return 2
    spec = wl.SPECS[args.workload]
    seconds = args.seconds if args.seconds is not None \
        else contract()["run_seconds"]
    scale_factor = wl.SMOKE_SCALE_FACTOR if args.smoke else spec.scale_factor
    ops = wl.op_count(spec, seconds, args.smoke)
    clients = harness.client_count()
    plan = wl.generate(
        args.workload, args.seed, ops, clients,
        list(ADAPTED_QUERIES.values()),
    )
    work = harness.open_workload(spec, plan, scale_factor)
    probe = harness.SpeedProbe()
    stamp = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": seconds, "commit": commit_sha(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "clients": work.clients,
        "scale_factor": scale_factor, "ops": ops,
        "reference_probe_s": harness.REFERENCE_PROBE_S,
    }

    if not args.trace:
        setups = []
        for _ in range(1 if args.smoke else harness.SETUP_REPEATS):
            # Free the previous set-up first, so peak RSS is one set-up's.
            work.teardown()
            gc.collect()
            probe.mark()
            start = perf_counter()
            work.setup()
            setups.append((perf_counter() - start) * probe.factor())
        work.prepare_checks()
        timed, _ = work.measure(plan.ops, probe)
        values = dict(harness.timing_metrics(timed, scaled=True))
        values["setup_s"] = statistics.median(setups)
        # ru_maxrss is KiB on Linux.
        values["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = {m["name"]: m["unit"] for m in contract()["end_to_end"]}
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        }
        stamp["as_clocked"] = harness.timing_metrics(timed, scaled=False)
    else:
        work.setup()
        work.prepare_checks()
        reference, _ = work.measure(work.reference_ops(), probe)
        registry = harness.MetricsRegistry()
        work.attach_registry(registry)
        before = registry.snapshot()
        log = harness.SpanLog()
        timed, layers = work.measure(plan.ops, probe, log)
        metrics = harness.per_layer(
            work, layers, log, harness.overhead_ratio(reference, timed),
            before, registry.snapshot(),
        )
        timed.attempted += reference.attempted
        timed.failed += reference.failed
        OUT.mkdir(exist_ok=True)
        log.write(OUT / f"trace_{args.workload}.jsonl")
        stamp["layers"] = harness.layer_table(layers, log)
        stamp["cost_units"] = {
            "estimated": layers.sums["est_cost_executed"],
            "measured": layers.sums["cost_units"],
        }

    checks = [work.oracle_check(), work.final_check()]
    attempted = timed.attempted + sum(n for n, _ in checks)
    failed = timed.failed + sum(f for _, f in checks)
    stamp["samples"] = {
        "batch_ms": len(timed.latencies), "beyond_p90": len(timed.latencies) // 10,
    }
    stamp["error_rate"] = failed / attempted

    for name, metric in metrics.items():
        print(f"{name:<36} {metric['value']:>16.4f} {metric['unit']}")
    print(f"{'error_rate':<36} {stamp['error_rate']:>16.4f} fraction "
          f"({failed} of {attempted})")
    print("# stamp " + json.dumps(stamp))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


# -- every workload, each in a subprocess ------------------------------------------------


def run_child(workload: str, seed: int, trace: int, args) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace),
    ]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(
        command, cwd=ROOT, env={**os.environ, **THREAD_PINS},
        capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(
            f"{workload} seed {seed} trace {trace} printed no result "
            f"(exit {done.returncode}):\n{done.stderr[-2000:]}"
        )
    record = json.loads(lines[-1])
    record["exit_code"] = done.returncode
    record["stamp"] = next(
        json.loads(line[len("# stamp "):])
        for line in lines if line.startswith("# stamp ")
    )
    return record


def print_run(record: dict) -> None:
    stamp = record["stamp"]
    print(f"== {stamp['workload']}  seed {stamp['seed']}  "
          f"trace {stamp['trace']}  SF {stamp['scale_factor']}  "
          f"ops {stamp['ops']}  clients {stamp['clients']}  "
          f"samples {stamp['samples']['batch_ms']}  "
          f"failed {record['failed']}/{record['attempted']}")
    for name, metric in record["metrics"].items():
        print(f"   {name:<36} {metric['value']:>16.4f} {metric['unit']}")


def print_report(record: dict) -> None:
    """The layer table of one traced run, largest self-time share first."""
    stamp = record["stamp"]
    print(f"-- {stamp['workload']}: layers by self time")
    for row in stamp["layers"]:
        print(f"   {row['layer']:<26} {row['self_ms']:>12.2f} ms "
              f"{row['share']:>7.1%}")
    cost = stamp["cost_units"]
    print(f"   cost units: estimated {cost['estimated']:.1f}  "
          f"measured {cost['measured']:.1f}  "
          f"(measured/estimated "
          f"{cost['measured'] / cost['estimated'] if cost['estimated'] else 0:.3f})")


def run_all(args: argparse.Namespace) -> int:
    import workloads as wl

    traces = [1] if args.report else ([0, 1] if args.trace else [0])
    result = {"stamp": {"commit": commit_sha(), "seed": args.seed,
                        "repeat": args.repeat, "smoke": args.smoke},
              "runs": {name: [] for name in wl.WORKLOADS},
              "traced": {name: [] for name in wl.WORKLOADS}}
    exit_code = 0
    for repeat in range(args.repeat):
        for workload in wl.WORKLOADS:
            for trace in traces:
                record = run_child(workload, args.seed + repeat, trace, args)
                result["traced" if trace else "runs"][workload].append(record)
                exit_code = exit_code or record["exit_code"]
                print_run(record)
                if args.report:
                    print_report(record)
    OUT.mkdir(exist_ok=True)
    path = args.out or OUT / "results.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {path}")
    return exit_code


if __name__ == "__main__":
    arguments = parse_args()
    sys.exit(run_all(arguments) if arguments.all else run_workload(arguments))
