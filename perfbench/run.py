"""Benchmark of the `ginibre` sampler and validator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout against the package in its `src/`.
Workloads, metrics and their bounds are declared in BENCHMARK.json; the
layer-to-metric predictions are in layers.py. The workload runs in a
fresh worker process with BLAS pinned to one thread. Before it, several
fresh processes time package import plus setup, and setup_s is their
median. With --trace 0 the metrics are the end-to-end ones, measured
untraced; with --trace 1 they are the per-layer ones from a traced run of
fixed work. The last stdout line is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4  # fresh processes timing setup, after one warm-up
TIME_LIMIT_S = 170.0  # a run ends well within 180 s
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_worker(args: list[str], env: dict, timeout: float) -> dict:
    """Run worker.py; its last stdout line is JSON. Raises on any failure."""
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                          stdout=subprocess.PIPE, text=True, timeout=timeout, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="ginibre benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()

    if not (ROOT / "src" / "ginibre" / "__init__.py").is_file():
        return fail(f"no ginibre package under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    env = {**os.environ, **PINNED_THREADS, "PYTHONPATH": str(ROOT / "src")}
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup_times = []
        if not args.trace:
            for i in range(SETUP_PROBES + 1):
                probe = run_worker([*common, "--probe"], env, timeout=60.0)
                if i:
                    setup_times.append(probe["setup_s"])
        remaining = TIME_LIMIT_S - (time.perf_counter() - started)
        result = run_worker([*common, "--seconds", str(args.seconds),
                             "--trace", str(args.trace)], env, timeout=remaining)
    except (subprocess.SubprocessError, OSError, ValueError, IndexError) as exc:
        return fail(f"worker failed: {exc}")

    if args.trace:
        measured = result["metrics"]
    else:
        setup_s = statistics.median(setup_times + [result["setup_s"]])
        per_call_s = result["elapsed_s"] / result["calls"]
        measured = {
            "ops_per_s": result["ops_per_s"],
            "call_p50_ms": result["call_p50_ms"],
            "call_tail_ms": result["call_tail_ms"],
            "wall_s": setup_s + result["job_calls"] * per_call_s,
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing and not args.trace:
        return fail(f"end-to-end metrics not measured: {missing}")

    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for name in ("speed", "calls", "tail_percentile", "wall_elapsed_s", "wall_ops_per_s",
                 "exact_counts"):
        if name in result:
            print(f"{name} {json.dumps(result[name])}")
    print(f"failed_share {result['failed'] / max(result['attempted'], 1)!r}")
    for name in sorted(measured):
        unit = next((m["unit"] for m in declared if m["name"] == name), "")
        print(f"{name} {measured[name]!r} {unit}")
    for name in missing:
        print(f"{name} absent", file=sys.stderr)
    for problem in result["problems"]:
        print(f"incorrect: {problem}", file=sys.stderr)

    line = {
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in measured},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
