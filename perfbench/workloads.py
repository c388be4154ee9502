"""The four benchmark workloads and the checks on their outputs.

Each workload is a closed loop of calls into the public `ginibre` API
with `workers=1`. A call is what a user waits on: one draw for the two
sequential-sampler workloads, one 512-matrix batch for `matrix_n50`, one
suite run for `validate_smoke`. Every call's inputs derive from the seed
and the call index; the program sees only those inputs.

Importing this module imports `ginibre`, so the setup probe times it.
"""

from __future__ import annotations

import hashlib
import json
import math
from types import SimpleNamespace

import numpy as np

from ginibre import eigen, hkpv, matrix_sampler, pipelines, streams, validation

# Errors a draw may end in without the run being wrong: the program's own
# numerical limits. They count as failed operations and the run goes on.
NUMERICAL_ERRORS = (hkpv.RejectionCapError, hkpv.OrthogonalityError,
                    eigen.EigensolverError)

DISK_SLACK = 1e-12          # relative slack on "inside the target disk"
BACKWARD_ERROR_TOL = 1e-12  # sigma_min(A - lam I) / ||A||_2 per eigenvalue
MATCH_TOL = 1e-9            # |lam - lapack match| / ||A||_2
REPORT_RULES = {"z-score", "relative", "absolute", "bracket", "monotone-decreasing",
                "l1-absolute", "ks-pvalue", "poisson-two-sided", "must-fail"}


class Workload:
    """One named workload: setup, one call, and the checks on its outputs.

    A check problem is a pair (operation, message). Each operation named
    in a problem counts as one failed operation.
    """

    name = ""
    call_ops = 1    # operations a call attempts
    job_calls = 1   # calls in the job whose wall time wall_s reports
    trace_calls = 1  # calls in the fixed work of a traced run

    def setup(self):
        """Build what the first call needs (nothing by default)."""
        return None

    def call(self, state, seed: int, index: int):
        raise NotImplementedError

    def ops(self, output) -> tuple[int, int]:
        """(attempted, failed) operations in one call's output, before checks."""
        return self.call_ops, 0

    def check(self, outputs: list, seed: int) -> list[tuple[str, str]]:
        """Problems in the outputs of calls 0..len-1 (None: the call raised)."""
        raise NotImplementedError

    def corrupt(self, outputs: list) -> list:
        """A copy of outputs with one deliberate error only check() can see."""
        raise NotImplementedError

    def fingerprint(self, outputs: list) -> str:
        """Exact digest of the outputs, for comparing runs bit for bit."""
        raise NotImplementedError

    def checks_failed(self, outputs: list) -> int:
        """Validation checks not passed in the outputs."""
        return 0


def _points_fingerprint(point_arrays) -> str:
    digest = hashlib.sha256()
    for pts in point_arrays:
        digest.update(np.ascontiguousarray(pts, dtype=complex).tobytes())
        digest.update(b"|")
    return digest.hexdigest()


def disk_problems(points: np.ndarray, radius: float) -> list[str]:
    """Every point finite, pairwise distinct and inside B_radius."""
    problems = []
    if not np.isfinite(points.view(np.float64)).all():
        problems.append("non-finite point")
    if np.any(np.abs(points) > radius * (1.0 + DISK_SLACK)):
        problems.append(f"point outside the disk of radius {radius}")
    if len(np.unique(points)) != len(points):
        problems.append("repeated point")
    return problems


def eigen_problems(matrix: np.ndarray, values: np.ndarray) -> list[str]:
    """values are the eigenvalues of matrix: backward error and LAPACK match.

    The backward error sigma_min(A - lam I) / ||A||_2 of each value must be
    at most BACKWARD_ERROR_TOL, and an optimal one-to-one matching to
    numpy.linalg.eigvals must pair every value within MATCH_TOL * ||A||_2,
    which also catches a duplicated value standing in for a missing one.
    """
    from scipy.optimize import linear_sum_assignment

    n = matrix.shape[0]
    if values.shape != (n,):
        return [f"{values.shape} eigenvalues for order {n}"]
    if not np.isfinite(values.view(np.float64)).all():
        return ["non-finite eigenvalue"]
    scale = np.linalg.norm(matrix, 2)
    reference = np.linalg.eigvals(matrix)
    rows, cols = linear_sum_assignment(np.abs(values[:, None] - reference[None, :]))
    problems = []
    match = float(np.abs(values[rows] - reference[cols]).max()) / scale
    if not match <= MATCH_TOL:
        problems.append(f"eigenvalues differ from LAPACK by {match:.3g} ||A||")
    eye = np.eye(n)
    backward = max(np.linalg.svd(matrix - lam * eye, compute_uv=False)[-1]
                   for lam in values) / scale
    if not backward <= BACKWARD_ERROR_TOL:
        problems.append(f"eigenvalue backward error {backward:.3g}")
    return problems


def report_problems(report_json: str, seed: int) -> list[str]:
    """The validation report parses and follows schema_version 1."""
    try:
        data = json.loads(report_json)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    keys = {"schema_version", "seed", "runtime_seconds", "passed", "checks"}
    if not isinstance(data, dict) or set(data) != keys:
        return [f"report is not an object with the keys {sorted(keys)}"]
    problems = []
    if data["schema_version"] != 1:
        problems.append(f"schema_version {data['schema_version']!r} is not 1")
    if data["seed"] != seed:
        problems.append(f"report seed {data['seed']!r} is not {seed}")
    checks = data["checks"]
    if not isinstance(checks, list) or not checks:
        return problems + ["report has no checks"]
    fields = {"name", "theoretical", "empirical", "tolerance", "sample_size", "passed"}
    names = set()
    for entry in checks:
        if not isinstance(entry, dict) or set(entry) != fields:
            problems.append(f"malformed check entry {entry!r:.80}")
            continue
        if entry["name"] in names:
            problems.append(f"check {entry['name']} appears twice")
        names.add(entry["name"])
        if entry["tolerance"].get("rule") not in REPORT_RULES:
            problems.append(f"check {entry['name']}: unknown rule")
        if not isinstance(entry["passed"], bool) or not isinstance(entry["sample_size"], int):
            problems.append(f"check {entry['name']}: mistyped fields")
    if data["passed"] != all(bool(c.get("passed")) for c in checks if isinstance(c, dict)):
        problems.append("report 'passed' disagrees with its checks")
    return problems


class MatrixN50(Workload):
    """sample_matrix_batch(50, seed, 512, offset=512 k): one default chunk per call."""

    name = "matrix_n50"
    n = 50
    batch = 512
    call_ops = batch
    verified = (0, 1, 2)  # samples checked against LAPACK, with the last one

    def call(self, state, seed, index):
        return pipelines.sample_matrix_batch(self.n, seed, self.batch,
                                             offset=self.batch * index, workers=1)

    def check(self, outputs, seed):
        problems = []
        samples = {}
        for k, batch in enumerate(outputs):
            if batch is None:
                continue
            if len(batch) != self.batch:
                problems.append((f"call {k}", f"{len(batch)} samples, not {self.batch}"))
            samples.update((self.batch * k + j, s.points) for j, s in enumerate(batch))
        for i, points in samples.items():
            if len(points) != self.n:
                problems.append((f"sample {i}", f"{len(points)} points, not {self.n}"))
            elif not np.isfinite(points.view(np.float64)).all():
                problems.append((f"sample {i}", "non-finite point"))
        # A fixed subset against LAPACK on the regenerated matrices.
        for i in sorted({*self.verified, max(samples, default=0)} & samples.keys()):
            matrix = matrix_sampler.sample_ginibre_matrix(self.n, streams.stream_rng(seed, i))
            problems += [(f"sample {i}", p) for p in eigen_problems(matrix, samples[i])]
        return problems

    def corrupt(self, outputs):
        # Sample 1 is compared with LAPACK; its count and finiteness stay right.
        batch = list(outputs[0])
        target = batch[1]
        points = target.points.copy()
        points[7] += 1e-6 * np.abs(points).max()
        batch[1] = type(target)(points=points, method=target.method,
                                params=target.params, seed=target.seed)
        return [batch] + outputs[1:]

    def fingerprint(self, outputs):
        return _points_fingerprint(s.points for batch in outputs if batch for s in batch)


class DiskDraws(Workload):
    """Single draws sampler.sample(stream_rng(seed, i)) from one prebuilt sampler."""

    radius = 0.0
    n = None  # exact point count, when the workload has one

    def build(self):
        raise NotImplementedError

    def setup(self):
        return self.build()

    def call(self, sampler, seed, index):
        return sampler.sample(streams.stream_rng(seed, index)).points

    def check(self, outputs, seed):
        problems = []
        for i, points in enumerate(outputs):
            if points is None:
                continue
            problems += [(f"draw {i}", p) for p in disk_problems(points, self.radius)]
            if self.n is not None and len(points) != self.n:
                problems.append((f"draw {i}", f"{len(points)} points, not {self.n}"))
        # The (seed, index) contract: a draw redone alone, by a fresh
        # sampler, reproduces the batch draw bit for bit.
        fresh = self.build()
        for i in sorted({0, len(outputs) - 1}):
            if outputs[i] is not None and (
                    self.call(fresh, seed, i).tobytes() != outputs[i].tobytes()):
                problems.append((f"draw {i}", "redrawn alone it differs"))
        return problems

    def corrupt(self, outputs):
        # A middle draw is not redrawn, so only the disk check can flag it.
        i = len(outputs) // 2
        points = outputs[i].copy()
        points[0] = 1.5 * self.radius * np.exp(1j * np.angle(points[0]))
        return outputs[:i] + [points] + outputs[i + 1:]

    def fingerprint(self, outputs):
        return _points_fingerprint(p for p in outputs if p is not None)


class ConditionedN100(DiskDraws):
    name = "conditioned_n100"
    n = 100
    radius = math.sqrt(100)  # the default target disk B_sqrt(N)
    job_calls = 20
    trace_calls = 20

    def build(self):
        return pipelines.ConditionedSampler(self.n)


class ProjectedR5(DiskDraws):
    name = "projected_r5"
    radius = 5.0
    job_calls = 200
    trace_calls = 200

    def build(self):
        return pipelines.GinibreDiskSampler(self.radius)


class ValidateSmoke(Workload):
    """run_validation_suite(seed, scale=0.1, workers=1): the time to a report."""

    name = "validate_smoke"
    scale = 0.1

    def call(self, state, seed, index):
        return validation.run_validation_suite(seed, scale=self.scale, workers=1)

    def ops(self, report):
        # A statistical check that is not passed is a failed operation,
        # including the known false alarms of a miscalibrated check.
        return len(report.checks), len(report.failed_checks())

    def checks_failed(self, outputs):
        return sum(len(r.failed_checks()) for r in outputs if r is not None)

    def check(self, outputs, seed):
        return [(f"suite {k}", p) for k, report in enumerate(outputs) if report is not None
                for p in report_problems(report.to_json(), seed)]

    def corrupt(self, outputs):
        data = json.loads(outputs[0].to_json())
        data["schema_version"] = 2
        tampered = SimpleNamespace(to_json=lambda: json.dumps(data))
        return [tampered] + outputs[1:]

    def fingerprint(self, outputs):
        digest = hashlib.sha256()
        for report in outputs:
            if report is not None:
                data = json.loads(report.to_json())
                del data["runtime_seconds"]
                digest.update(json.dumps(data, sort_keys=True).encode())
        return digest.hexdigest()


WORKLOADS = {w.name: w for w in (MatrixN50(), ConditionedN100(), ProjectedR5(), ValidateSmoke())}
