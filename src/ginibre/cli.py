"""Command-line front end: sampling, intensity tables, validation, bench.

Outputs are plain CSV/JSON intended for external plotting. Every command
is deterministic under a fixed --seed: sample i of a batch always draws
from the derived stream (seed, i), results are merged in sample order,
and floats are serialized with 17 significant digits, so output bytes do
not depend on the worker count.

Exit codes: 0 ok, 1 validation-check failure, 2 usage error, 3 numerical
failure. --epsilon and --max-proposals fall back to the GINIBRE_EPSILON
and GINIBRE_MAX_PROPOSALS environment variables when the flag is absent
(flags win over the environment); either way epsilon must lie in (0, 1)
and the proposal cap must be >= 1. A negative --seed is a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from functools import partial

import numpy as np

from . import hkpv, pipelines, validation
from .eigen import EigensolverError
from .kernels import intensity_bounds, radial_intensity

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _env(name: str, cast, default):
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return cast(raw)
    except ValueError as exc:
        print(f"ginibre: invalid {name}={raw!r}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from exc


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ginibre",
        description="Ginibre determinantal point process: simulation and validation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sample = sub.add_parser("sample", help="draw point-process realizations")
    p_sample.add_argument("--method", required=True,
                          choices=["matrix", "projected", "conditioned"])
    p_sample.add_argument("--n", type=int, help="rank N (matrix, conditioned)")
    p_sample.add_argument("--radius", type=float,
                          help="disk radius: R for projected, target a for conditioned")
    p_sample.add_argument("--count", type=int, default=1, help="number of samples")
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--epsilon", type=float, default=None,
                          help="spectrum tail tolerance (projected method)")
    p_sample.add_argument("--max-proposals", type=int, default=None,
                          help="rejection-sampler proposal cap per point")
    p_sample.add_argument("--workers", type=int, default=1)
    p_sample.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sample.add_argument("--output", "-o", default=None, help="path or - for stdout")

    p_int = sub.add_parser("intensity", help="radial intensity table with bounds")
    p_int.add_argument("--n", type=int, required=True, help="rank N")
    p_int.add_argument("--points", type=int, default=512, help="grid size")
    p_int.add_argument("--output", "-o", default=None)

    p_val = sub.add_parser("validate", help="run the statistical validation suite")
    p_val.add_argument("--seed", type=int, default=0)
    p_val.add_argument("--scale", type=float, default=1.0,
                       help="batch-size multiplier (1.0 = full desk scale)")
    p_val.add_argument("--workers", type=int, default=1)
    p_val.add_argument("--output", "-o", default=None, help="JSON report path")
    p_val.add_argument("--inject-fault", action="store_true",
                       help="test-only: skew matrix entry variance x2; the "
                            "suite must then fail")

    p_bench = sub.add_parser("bench", help="wall-time comparison of the methods")
    p_bench.add_argument("--methods", default="matrix,conditioned",
                         help="comma list from {matrix, projected, conditioned}")
    p_bench.add_argument("--sizes", default="10,30",
                         help="comma list of ranks N (projected uses R = sqrt N)")
    p_bench.add_argument("--count", type=int, default=20, help="samples per cell")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--output", "-o", default=None)
    return parser


# ---------------------------------------------------------------------------
# sample


def _validate_sample_args(args, epsilon: float, cap: int) -> str | None:
    if args.count < 1:
        return "--count must be >= 1"
    if args.workers < 1:
        return "--workers must be >= 1"
    if args.method == "matrix":
        if args.n is None or args.n < 1:
            return "matrix method needs --n >= 1"
        if args.radius is not None:
            return "matrix method takes no --radius (unbounded support)"
    elif args.method == "projected":
        if args.radius is None or not 0 <= args.radius < math.inf:
            return "projected method needs a finite --radius >= 0"
        if args.n is not None:
            return "projected method takes no --n (the count is random)"
    elif args.method == "conditioned":
        if args.n is None or args.n < 1:
            return "conditioned method needs --n >= 1"
        if args.radius is None or not 0 < args.radius < math.inf:
            return "conditioned method needs a finite --radius > 0"
    if not 0 < epsilon < 1:
        return "--epsilon (or GINIBRE_EPSILON) must lie in (0, 1)"
    if cap < 1:
        return "--max-proposals (or GINIBRE_MAX_PROPOSALS) must be >= 1"
    return None


def _route(method: str, n: int | None, radius: float | None, epsilon: float, cap: int):
    """The batch function (seed, count, offset=0, workers=1) of a method."""
    if method == "matrix":
        return partial(pipelines.sample_matrix_batch, n)
    if method == "projected":
        return pipelines.GinibreDiskSampler(radius, epsilon, max_proposals=cap).sample_batch
    return pipelines.ConditionedSampler(n, radius, max_proposals=cap).sample_batch


def _run_sample(args) -> int:
    epsilon = args.epsilon if args.epsilon is not None else _env("GINIBRE_EPSILON", float, 1e-12)
    cap = args.max_proposals if args.max_proposals is not None else _env(
        "GINIBRE_MAX_PROPOSALS", int, hkpv.DEFAULT_MAX_PROPOSALS)
    problem = _validate_sample_args(args, epsilon, cap)
    if problem:
        print(f"ginibre sample: {problem}", file=sys.stderr)
        return EXIT_USAGE
    batch = _route(args.method, args.n, args.radius, epsilon, cap)
    samples = batch(args.seed, args.count, workers=args.workers)

    if args.format == "csv":
        lines = [f"# seed={args.seed} method={samples[0].method}",
                 "sample_id,point_id,re,im"]
        for i, s in enumerate(samples):
            for j, z in enumerate(s.points):
                lines.append(f"{i},{j},{_fmt(z.real)},{_fmt(z.imag)}")
        _write(args.output, "\n".join(lines) + "\n")
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "sample",
            "method": samples[0].method,
            "params": samples[0].params,
            "seed": args.seed,
            "samples": [
                {"sample_id": i, **s.to_dict()} for i, s in enumerate(samples)
            ],
        }
        _write(args.output, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# intensity


def _run_intensity(args) -> int:
    if args.n < 1:
        print("ginibre intensity: --n must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.points < 2:
        print("ginibre intensity: --points must be >= 2", file=sys.stderr)
        return EXIT_USAGE
    rmax = math.sqrt(args.n) + 3.0
    grid = np.linspace(0.0, rmax, args.points)
    lines = ["r,rho1N,lower_bound,upper_bound"]
    for r, rho in zip(grid, radial_intensity(args.n, grid)):
        bounds = intensity_bounds(args.n, float(r))
        lo = _fmt(bounds.lower) if bounds.lower is not None else ""
        up = _fmt(bounds.upper) if bounds.upper is not None and math.isfinite(bounds.upper) else ""
        lines.append(f"{_fmt(float(r))},{_fmt(float(rho))},{lo},{up}")
    _write(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# validate


def _run_validate(args) -> int:
    if not (math.isfinite(args.scale) and args.scale > 0.0) or args.workers < 1:
        print("ginibre validate: --scale must be finite and > 0, --workers >= 1",
              file=sys.stderr)
        return EXIT_USAGE
    entry_scale = math.sqrt(2.0) if args.inject_fault else 1.0
    report = validation.run_validation_suite(
        seed=args.seed, scale=args.scale, workers=args.workers,
        entry_scale=entry_scale,
    )
    for check in report.checks:
        mark = "PASS" if check.passed else "FAIL"
        print(f"[{mark}] {check.name}: theoretical={check.theoretical:.8g} "
              f"empirical={check.empirical:.8g}")
    if args.output:
        _write(args.output, report.to_json() + "\n")
    if not report.passed:
        print("failed checks: " + ", ".join(report.failed_checks()), file=sys.stderr)
        return EXIT_CHECK_FAILURE
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


def _bench_cell(method: str, n: int, count: int, seed: int):
    batch = _route(method, n, math.sqrt(n), 1e-12, hkpv.DEFAULT_MAX_PROPOSALS)
    times = []
    rates = []
    for i in range(count):
        t0 = time.perf_counter()
        sample = batch(seed, 1, offset=i)[0]
        times.append(time.perf_counter() - t0)
        diag = sample.diagnostics
        if diag is not None and diag.proposals:
            rates.append(diag.acceptance_rate)
    mean = float(np.mean(times))
    std = float(np.std(times))
    rate = float(np.mean(rates)) if rates else float("nan")
    return mean, std, rate


def _run_bench(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        print("ginibre bench: --sizes must be integers", file=sys.stderr)
        return EXIT_USAGE
    bad = [m for m in methods if m not in ("matrix", "projected", "conditioned")]
    if bad or not methods or not sizes or args.count < 1:
        print(f"ginibre bench: invalid methods/sizes/count {bad}", file=sys.stderr)
        return EXIT_USAGE
    if min(sizes) < 1:
        print("ginibre bench: --sizes must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    lines = [f"# seed={args.seed}",
             "method,size,wall_mean_s,wall_std_s,acceptance_rate"]
    for method in methods:
        for n in sizes:
            mean, std, rate = _bench_cell(method, n, args.count, args.seed)
            rate_s = _fmt(rate) if not math.isnan(rate) else ""
            lines.append(f"{method},{n},{_fmt(mean)},{_fmt(std)},{rate_s}")
    _write(args.output, "\n".join(lines) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", 0) < 0:
        print(f"ginibre {args.command}: --seed must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "sample":
            return _run_sample(args)
        if args.command == "intensity":
            return _run_intensity(args)
        if args.command == "validate":
            return _run_validate(args)
        if args.command == "bench":
            return _run_bench(args)
    except (EigensolverError, hkpv.RejectionCapError, hkpv.OrthogonalityError,
            ArithmeticError) as exc:
        print(f"ginibre: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    parser.error("no command")
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
