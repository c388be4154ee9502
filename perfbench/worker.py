"""One workload in one fresh process; run.py starts it and reads its last line.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --probe

--probe times package import plus the workload's setup and prints it.
Otherwise the last stdout line is one JSON object: the run's operation
counts, the problems its correctness checks found, and its measurements
(untraced, --trace 0) or its per-layer metrics (traced, --trace 1).
Times are reference seconds (clock.py); raw wall times are reported next
to them.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from clock import ReferenceClock

HERE = Path(__file__).resolve().parent
STATE_DIR = HERE.parent / ".perfbench"


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 calls beyond it.

    With fewer than 11 calls no percentile qualifies and the maximum is
    reported as percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_calls(clock, workload, state, seed: int, indices, wall_deadline=None):
    """Call the workload at each index; numerical errors become None outputs.

    Returns the outputs and each call's latency in reference seconds.
    """
    from workloads import NUMERICAL_ERRORS

    outputs, latencies = [], []
    for index in indices:
        start = clock.now()
        try:
            outputs.append(workload.call(state, seed, index))
        except NUMERICAL_ERRORS as exc:
            print(f"call {index}: {type(exc).__name__}: {exc}", file=sys.stderr)
            outputs.append(None)
        latencies.append(clock.now() - start)
        if wall_deadline is not None and time.perf_counter() >= wall_deadline:
            break
    return outputs, latencies


def judge(workload, outputs, seed) -> dict:
    """Operation counts and correctness problems of a run's outputs.

    A call that raised fails all its operations; each operation that a
    check problem names fails once. The checker must also flag a
    deliberately corrupted copy of the outputs.
    """
    attempted = completed = failed = 0
    for out in outputs:
        a, f = (workload.call_ops, workload.call_ops) if out is None else workload.ops(out)
        attempted += a
        completed += 0 if out is None else a
        failed += f
    problems = workload.check(outputs, seed)
    failed += len({operation for operation, _ in problems})
    lines = [f"{operation}: {message}" for operation, message in problems]
    if any(out is None for out in outputs):
        print("self-test skipped: a call raised", file=sys.stderr)
    elif outputs and not workload.check(workload.corrupt(outputs), seed):
        lines.append("self-test: the checker missed a deliberately corrupted output")
    return {"attempted": attempted, "completed": completed, "failed": failed,
            "problems": lines}


def untraced(clock, workload, state, seed: int, seconds: float) -> dict:
    """Calls in a closed loop for `seconds` of wall time."""
    wall_start = time.perf_counter()
    start = clock.now()
    outputs, latencies = run_calls(clock, workload, state, seed, itertools.count(),
                                   wall_deadline=wall_start + seconds)
    elapsed = clock.now() - start
    wall = time.perf_counter() - wall_start
    result = judge(workload, outputs, seed)
    tail_value, tail_pct = tail(latencies)
    return {
        **result,
        "calls": len(latencies), "job_calls": workload.job_calls,
        "elapsed_s": elapsed, "wall_elapsed_s": wall,
        "ops_per_s": result["completed"] / elapsed,
        "wall_ops_per_s": result["completed"] / wall,
        "call_p50_ms": 1e3 * statistics.median(latencies),
        "call_tail_ms": 1e3 * tail_value, "tail_percentile": tail_pct,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def code_digest() -> str:
    import hashlib

    digest = hashlib.sha256()
    src = HERE.parent / "src" / "ginibre"
    for path in sorted(list(src.rglob("*.py")) + list(HERE.glob("*.py"))):
        digest.update(path.relative_to(HERE.parent).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def recorded_counts_problems(key: str, counts: dict) -> list[str]:
    """Compare exact counts with those an earlier run of the same code and
    seed recorded in the checkout; record them if none did."""
    path = STATE_DIR / "exact_counts.json"
    try:
        recorded = json.loads(path.read_text())
    except (OSError, ValueError):
        recorded = {}
    if key in recorded:
        if recorded[key] != counts:
            return [f"exact counts differ from an earlier run: {recorded[key]} != {counts}"]
        return []
    recorded[key] = counts
    STATE_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(recorded, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return []


def traced(clock, workload, seed: int) -> dict:
    """Fixed work three times: traced, untraced, traced.

    Layer metrics come from the first traced pass, with its times scaled
    to reference seconds by the pass's mean speed. Exact counts and
    outputs must agree across the passes. The tracing overhead is the
    mean traced time minus the untraced time.
    """
    import layers

    passes = []
    for with_tracer in (True, False, True):
        tracer = layers.Tracer() if with_tracer else None
        if tracer:
            tracer.install()
        wall_start, start = time.perf_counter(), clock.now()
        try:
            state = workload.setup()
            outputs, _ = run_calls(clock, workload, state, seed, range(workload.trace_calls))
        finally:
            if tracer:
                tracer.uninstall()
        elapsed = clock.now() - start
        passes.append((tracer, outputs, elapsed, elapsed / (time.perf_counter() - wall_start)))

    (first, outputs, time_a, speed_a), (_, plain_outputs, time_u, _), \
        (second, outputs_b, time_b, _) = passes
    metrics = {name: value * speed_a if name.endswith("_s") else value
               for name, value in first.metrics().items()}
    metrics["validation.checks_failed"] = workload.checks_failed(outputs)
    metrics["trace.traced_wall_s"] = 0.5 * (time_a + time_b)
    metrics["trace.untraced_wall_s"] = time_u
    metrics["trace.overhead_s"] = 0.5 * (time_a + time_b) - time_u

    result = judge(workload, outputs, seed)
    problems = result["problems"]
    counts = {k: metrics[k] for k in layers.EXACT_COUNTS if k in metrics}
    counts_b = {k: v for k, v in second.metrics().items() if k in counts}
    if workload.name == "projected_r5":
        counts["output.points"] = sum(len(p) for p in outputs if p is not None)
        counts_b["output.points"] = sum(len(p) for p in outputs_b if p is not None)
    if counts != counts_b:
        problems.append(f"exact counts differ between traced passes: {counts} != {counts_b}")
    if len({workload.fingerprint(o) for o in (outputs, plain_outputs, outputs_b)}) != 1:
        problems.append("outputs differ between the traced and untraced passes")
    key = f"{workload.name}:seed={seed}:calls={workload.trace_calls}:code={code_digest()}"
    problems += recorded_counts_problems(key, counts)
    spans_path = STATE_DIR / f"spans-{workload.name}-seed{seed}.json"
    spans_path.write_text(json.dumps(first.spans))

    zero, absent = layers.expectation_problems(workload.name, metrics)
    problems += [f"layer metric {name} reads 0 on {workload.name}" for name in zero]
    for name in absent:
        print(f"layer metric {name} is absent: its function is no longer there",
              file=sys.stderr)
    return {**result, "metrics": metrics, "exact_counts": counts}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    import ginibre

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "seed": seed, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "ginibre": str(Path(ginibre.__file__).parent),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    with ReferenceClock() as clock:
        start = clock.now()
        import workloads

        state = workloads.WORKLOADS[args.workload].setup()
        setup_s = clock.now() - start
        import ginibre

        if Path(ginibre.__file__).resolve().parent != HERE.parent / "src" / "ginibre":
            print(f"ginibre imported from {ginibre.__file__}, not from this checkout",
                  file=sys.stderr)
            return 2
        if args.probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        workload = workloads.WORKLOADS[args.workload]
        if args.trace:
            result = traced(clock, workload, args.seed)
        else:
            result = untraced(clock, workload, state, args.seed, args.seconds)
        result["setup_s"] = setup_s
        result["speed"] = clock.speed()
    result["environment"] = environment(args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
