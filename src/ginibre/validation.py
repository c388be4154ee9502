"""Quantitative law checks: closed forms vs Monte Carlo, with pass/fail.

Tolerance conventions (uniform across the suite so reports are machine
checkable): Monte Carlo moments and frequencies use z-scores with the
standard deviation taken from the theoretical law, and record the
two-sided normal tail erfc(z / sqrt 2) as `tolerance.pvalue`, as KS
tests do. KS tests compare against exact finite-N distribution functions
built from the incomplete-gamma module or between two batches, on one
value per draw (the largest |X_i|^2, the smallest pair distance), so that
the values a test pools are independent; only the two-sample radius test
pools every point. Deterministic identities use relative or absolute
slack of 1e-8 / 1e-12 as stated per check. Every theoretical value is
recomputed from closed forms at report time. Checks called alone apply
their own rules; in the suite, holm() decides those with a p-value.

A check function reads arrays and returns its list of CheckResults: m
draws of N points each are an (m, N) point array, and projected-route
draws enter as their vector of counts. The suite is the tuple FAMILIES,
in report order; each family draws its own batches, from these seeds:

    family                   seeds                        draws
    closed_form_family       none                         none
    kostlan_family           seed                         matrix, N=50
    conditioning_family      seed + n                     matrix, N=1, 2, 3
    projected_family         seed + 10, seed + 10 R + 20  disk, R=0.5, 1, 2
    equivalence_family       seed + 40 + n, seed + 50 + n conditioned, N=2, 3;
                             seed + 98                    uniform control
    negative_control_family  seed + 99                    uniform control
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy import stats as scipy_stats

from . import kernels, pipelines
from .records import SampleSet
from .specfun import log_regularized_lower_gamma

__all__ = ["CheckResult", "ValidationReport", "FAMILIES", "delta_n", "kostlan_check",
           "intensity_check", "hole_and_count_check", "method_equivalence_check",
           "holm", "run_validation_suite"]

SCHEMA_VERSION = 1

KS_LEVEL = 0.01

# Family-wise error rate of the suite's stochastic checks (Holm).
FAMILY_LEVEL = 0.01


@dataclass
class CheckResult:
    name: str
    theoretical: float
    empirical: float
    tolerance: dict
    sample_size: int
    passed: bool

    def to_dict(self) -> dict:
        return {**asdict(self), "passed": bool(self.passed)}


@dataclass
class ValidationReport:
    seed: int
    checks: list[CheckResult] = field(default_factory=list)
    runtime_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed_checks(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def to_json(self, indent: int | None = 2) -> str:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "seed": int(self.seed),
            "runtime_seconds": self.runtime_seconds,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }
        return json.dumps(payload, indent=indent)


def _z_check(name: str, theoretical: float, empirical: float, sigma: float,
             n: int, limit: float = 3.0) -> CheckResult:
    z = abs(empirical - theoretical) / sigma if sigma > 0 else math.inf
    return CheckResult(
        name=name, theoretical=theoretical, empirical=empirical,
        tolerance={"rule": "z-score", "limit": limit, "z": z, "sigma": sigma,
                   "pvalue": math.erfc(z / math.sqrt(2.0))},
        sample_size=n, passed=z <= limit,
    )


def _ks_check(name: str, pvalue: float, n: int) -> CheckResult:
    return CheckResult(name=name, theoretical=1.0, empirical=pvalue,
                       tolerance={"rule": "ks-pvalue", "level": KS_LEVEL, "pvalue": pvalue},
                       sample_size=n, passed=pvalue > KS_LEVEL)


def _must_fail(name: str, probe: CheckResult, n: int, **detail) -> CheckResult:
    failed = not probe.passed
    return CheckResult(name=name, theoretical=1.0, empirical=float(failed),
                       tolerance={"rule": "must-fail", **detail}, sample_size=n, passed=failed)


def _rel_check(name: str, theoretical: float, empirical: float, rel: float,
               n: int = 0) -> CheckResult:
    err = abs(empirical - theoretical) / max(abs(theoretical), 1e-300)
    return CheckResult(
        name=name, theoretical=theoretical, empirical=empirical,
        tolerance={"rule": "relative", "limit": rel, "error": err},
        sample_size=n, passed=err <= rel,
    )


def _sample_variance_sigma(mu4: float, var: float, m: int) -> float:
    """Std dev of the unbiased sample variance of m iid draws."""
    if m < 2:
        return math.inf
    return math.sqrt(max(mu4 / m - var * var * (m - 3) / (m * (m - 1)), 0.0))


# ---------------------------------------------------------------------------
# closed forms


def delta_n(n_rank: int) -> float:
    """Expected number of rank-N points outside B_sqrt(N).

    N - sum_{n<N} P(n+1, N), computed as sum_{n<N} Q(n+1, N) so nothing
    cancels; equals the integral of the radial intensity beyond sqrt(N).
    """
    if n_rank < 1:
        raise ValueError("rank must be >= 1")
    prof = kernels.spectrum_profile(math.sqrt(n_rank), rank=n_rank)
    return float(np.exp(prof.log_one_minus).sum())


def kostlan_max_cdf(n_rank: int):
    """Exact CDF of max_i |X_i|^2: prod_{i=1..N} P(i, x)."""
    shapes = np.arange(1, n_rank + 1)

    def cdf(x):
        xs = np.maximum(np.asarray(x, dtype=float), 0.0)[..., None]
        out = np.exp(log_regularized_lower_gamma(shapes, xs).sum(axis=-1))
        return out if np.ndim(x) else float(out)

    return cdf


# ---------------------------------------------------------------------------
# sample-based checks


def kostlan_check(points: np.ndarray, label: str = "") -> list[CheckResult]:
    """Mean/variance of sum |X_i|^2 against N(N+1)/2 (3 sigma) and KS of
    max |X_i|^2 against its exact product CDF (level 0.01), one value of
    each per row of the (m, N) point array."""
    m, n = points.shape
    k = n * (n + 1) / 2.0
    squares = np.abs(points) ** 2
    sums = squares.sum(axis=1)
    mu4 = 3.0 * k * k + 6.0 * k
    pvalue = float(scipy_stats.kstest(squares.max(axis=1), kostlan_max_cdf(n)).pvalue)
    return [
        _z_check(f"kostlan_mean{label}", k, float(sums.mean()), math.sqrt(k / m), m),
        _z_check(f"kostlan_variance{label}", k, float(sums.var(ddof=1)),
                 _sample_variance_sigma(mu4, k, m), m),
        _ks_check(f"kostlan_max_ks{label}", pvalue, m),
    ]


def intensity_check(samples: list[SampleSet], bins: int = 32, l1_limit: float = 0.03,
                    label: str = "") -> list[CheckResult]:
    """Radial histogram against the applicable closed-form intensity.

    matrix: rank-N radial intensity on [0, sqrt(N)+4];
    projected_disk: flat 1/pi profile on [0, R];
    conditioned: the conditioned-kernel diagonal, compared on the
    pre-homothety disk B_sqrt(N) (radii are mapped back by the recorded
    output scale a/sqrt(N)).
    """
    if len(samples) < 1000:
        raise ValueError("intensity check needs at least 1e3 samples")
    method = samples[0].method
    if any(s.method != method for s in samples):
        raise ValueError("batch mixes methods")

    if method == "matrix":
        n = int(samples[0].params["N"])
        rmax = math.sqrt(n) + 4.0
        edges = np.linspace(0.0, rmax, bins + 1)
        radii = np.concatenate([s.radii() for s in samples])
        total = len(samples) * n
        dens = lambda r: kernels.radial_intensity(n, r) * 2 * math.pi * r / n
    elif method == "projected_disk":
        rad = float(samples[0].params["R"])
        edges = np.linspace(0.0, rad, bins + 1)
        radii = np.concatenate([s.radii() for s in samples])
        total = len(radii)
        dens = lambda r: 2 * r / (rad * rad)  # flat 1/pi profile over the disk
    elif method == "conditioned":
        n = int(samples[0].params["N"])
        a = float(samples[0].params["a"])
        scale = a / math.sqrt(n)
        edges = np.linspace(0.0, math.sqrt(n), bins + 1)
        radii = np.concatenate([s.radii() for s in samples]) / scale
        total = len(samples) * n
        dens = lambda r: kernels.conditioned_kernel(n, r, r).real * 2 * math.pi * r / n
    else:
        raise ValueError(f"unknown method {method!r}")

    observed = np.histogram(radii, bins=edges)[0] / total
    expected = np.array([
        _quad_fraction(dens, edges[i], edges[i + 1]) for i in range(bins)
    ])
    l1 = float(np.abs(observed - expected).sum())
    # Multinomial sampling noise alone contributes E|O-E| per bin; below
    # the stated batch sizes the limit is floored at noise mean + 3 sd so
    # reduced-scale runs stay meaningful. At the stated sizes the floor is
    # far below l1_limit and the stated tolerance is what binds.
    var_bins = expected * (1 - expected) / max(total, 1)
    noise_mean = float(np.sqrt(2.0 * var_bins / math.pi).sum())
    noise_sd = math.sqrt(float(var_bins.sum()) * (1.0 - 2.0 / math.pi))
    limit_eff = max(l1_limit, noise_mean + 3.0 * noise_sd)
    return [CheckResult(
        name=f"intensity_l1_{method}{label}", theoretical=0.0, empirical=l1,
        tolerance={"rule": "l1-absolute", "limit": limit_eff,
                   "stated_limit": l1_limit, "noise_mean": noise_mean},
        sample_size=len(samples), passed=l1 <= limit_eff,
    )]


def _quad_fraction(dens, lo: float, hi: float, nodes: int = 64) -> float:
    x, w = np.polynomial.legendre.leggauss(nodes)
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    return float(w @ dens(mid + half * x) * half)


def hole_and_count_check(counts: np.ndarray, radius: float,
                         label: str = "") -> list[CheckResult]:
    """Projected route: hole frequency, mean count, count variance, from
    the vector of per-draw point counts.

    The hole check is a 3-sigma z-test when the expected number of empty
    samples is large; in the rare-event regime (< 50 expected) the normal
    approximation undercovers, so an exact two-sided Poisson test at
    level 1e-3 is used instead.
    """
    prof = kernels.spectrum_profile(radius)
    lam = prof.eigenvalues
    counts = np.asarray(counts, dtype=float)
    m = len(counts)

    hole_p = math.exp(prof.log_hole_probability())
    hole_events = int(np.sum(counts == 0))
    if hole_p * m >= 50.0:
        hole = _z_check(f"hole_frequency{label}", hole_p, float(np.mean(counts == 0)),
                        math.sqrt(hole_p * (1 - hole_p) / m), m)
    else:
        lam_poisson = hole_p * m
        lower = float(scipy_stats.poisson.cdf(hole_events, lam_poisson))
        upper = float(scipy_stats.poisson.sf(hole_events - 1, lam_poisson))
        pvalue = min(1.0, 2.0 * min(lower, upper))
        hole = CheckResult(
            name=f"hole_frequency{label}", theoretical=hole_p,
            empirical=hole_events / m,
            tolerance={"rule": "poisson-two-sided", "level": 1e-3,
                       "pvalue": pvalue, "expected_events": lam_poisson},
            sample_size=m, passed=pvalue > 1e-3,
        )

    mean_th = float(lam.sum())
    var_th = float((lam * (1 - lam)).sum())
    mu4 = float((lam * (1 - lam) * (1 - 6 * lam * (1 - lam))).sum()) + 3 * var_th ** 2
    return [
        hole,
        _z_check(f"count_mean{label}", mean_th, float(counts.mean()),
                 math.sqrt(var_th / m), m),
        _z_check(f"count_variance{label}", var_th, float(counts.var(ddof=1)),
                 _sample_variance_sigma(mu4, var_th, m), m, limit=4.0),
    ]


def outside_disk_check(points: np.ndarray, label: str = "") -> list[CheckResult]:
    """Mean number of matrix-route points beyond B_sqrt(N) vs delta(N)."""
    m, n = points.shape
    root_n = math.sqrt(n)
    outside = (np.abs(points) > root_n).sum(axis=1)
    q = np.exp(kernels.spectrum_profile(root_n, rank=n).log_one_minus)
    sigma = math.sqrt(float((q * (1 - q)).sum()) / m)
    return [_z_check(f"outside_mean_delta{label}", delta_n(n), float(outside.mean()), sigma, m)]


def conditioning_probability_check(points: np.ndarray, label: str = "") -> list[CheckResult]:
    """Frequency of all matrix-route points inside B_sqrt(N)."""
    m, n = points.shape
    inside = np.all(np.abs(points) <= math.sqrt(n), axis=1)
    p = pipelines.acceptance_probability_all_in_disk(n)
    return [_z_check(f"conditioning_probability_n{n}{label}", p, float(inside.mean()),
                     math.sqrt(p * (1 - p) / m), m)]


def _min_pair_distance(points: np.ndarray) -> np.ndarray:
    i, j = np.triu_indices(points.shape[1], 1)
    return np.abs(points[:, i] - points[:, j]).min(axis=1)


def method_equivalence_check(reference: np.ndarray, candidate: np.ndarray,
                             label: str = "") -> list[CheckResult]:
    """Two-sample KS between (m, N) point arrays, N >= 2: on all radii, and
    on each draw's minimum pair distance (one value per draw)."""
    results = []
    for name, extract in (("radius", lambda p: np.abs(p).ravel()),
                          ("min_pair_distance", _min_pair_distance)):
        a, b = extract(reference), extract(candidate)
        results.append(_ks_check(f"equivalence_{name}{label}",
                                 float(scipy_stats.ks_2samp(a, b).pvalue), len(a) + len(b)))
    return results


# ---------------------------------------------------------------------------
# deterministic closed-form checks


def trace_identity_checks(radii=(0.5, 1.0, 3.0, 10.0)) -> list[CheckResult]:
    return [_rel_check(f"trace_identity_r{rad}", rad * rad,
                       kernels.spectrum_profile(rad).trace, 1e-8) for rad in radii]


def circular_law_bound_checks(n_rank: int = 600,
                              offsets=(0.2, 0.4, 0.6, 0.8, 1.0)) -> list[CheckResult]:
    """rho_1^N between the asymptotic falloff brackets near sqrt(N)."""
    root_n = math.sqrt(n_rank)
    worst = 0.0
    for u in offsets:
        g = math.exp(-2 * u * u) / (2 * math.sqrt(2) * u * math.pi ** 1.5)
        inside = kernels.radial_intensity(n_rank, root_n - u)
        outside = kernels.radial_intensity(n_rank, root_n + u)
        worst = max(worst, (1 / math.pi - g) - inside, outside - g)
    return [CheckResult(
        name=f"circular_law_bounds_n{n_rank}", theoretical=0.0, empirical=worst,
        tolerance={"rule": "absolute", "limit": 1e-12},
        sample_size=0, passed=worst <= 1e-12,
    )]


def delta_asymptotic_checks(ranks=(100, 400, 900)) -> list[CheckResult]:
    """delta(N) ~ sqrt(N / 2 pi): bracket at the largest rank, monotone
    approach of the ratio across the given ranks."""
    ratios = [delta_n(n) / math.sqrt(n / (2 * math.pi)) for n in ranks]
    final = ratios[-1]
    gaps = [abs(r - 1.0) for r in ratios]
    monotone = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    return [
        CheckResult(
            name=f"delta_ratio_n{ranks[-1]}", theoretical=1.0, empirical=final,
            tolerance={"rule": "bracket", "low": 0.9, "high": 1.1},
            sample_size=0, passed=0.9 <= final <= 1.1,
        ),
        CheckResult(
            name="delta_ratio_monotone", theoretical=0.0, empirical=float(gaps[-1]),
            tolerance={"rule": "monotone-decreasing", "gaps": gaps},
            sample_size=0, passed=monotone,
        ),
    ]


# ---------------------------------------------------------------------------
# negative controls: a wrong law that must fail


def _uniform_disk(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """(m, n) uniform points on B_sqrt(n); per draw, n radius uniforms
    then n angle uniforms."""
    u = rng.random((m, 2, n))
    return math.sqrt(n) * np.sqrt(u[:, 0]) * np.exp(1j * (-math.pi + 2 * math.pi * u[:, 1]))


def negative_control_kostlan(seed: int, n_rank: int = 50,
                             m: int = 2000) -> list[CheckResult]:
    """Uniform disk points of matched mean radius must fail the Kostlan
    mean test; passing here means the positive test has teeth."""
    mean = kostlan_check(_uniform_disk(np.random.default_rng(seed), m, n_rank))[0]
    return [_must_fail("negative_control_uniform_fails_kostlan", mean, m,
                       probe_z=mean.tolerance["z"])]


def negative_control_equivalence(reference: np.ndarray, seed: int) -> list[CheckResult]:
    """Uniform points on B_sqrt(N) must fail the minimum-pair-distance KS
    against the (m, N) conditioned reference."""
    m, n = reference.shape
    min_pair = method_equivalence_check(
        reference, _uniform_disk(np.random.default_rng(seed), m, n))[1]
    return [_must_fail("negative_control_uniform_fails_equivalence", min_pair,
                       min_pair.sample_size, probe_pvalue=min_pair.empirical)]


# ---------------------------------------------------------------------------
# suite: families in report order


def _sized(base: int, scale: float) -> int:
    return max(1000, int(base * scale))


def _points(batch: list[SampleSet]) -> np.ndarray:
    return np.stack([s.points for s in batch])


def closed_form_family(seed, scale, workers, entry_scale) -> list[CheckResult]:
    return trace_identity_checks() + circular_law_bound_checks() + delta_asymptotic_checks()


def kostlan_family(seed, scale, workers, entry_scale) -> list[CheckResult]:
    batch = pipelines.sample_matrix_batch(50, seed=seed, count=_sized(10_000, scale),
                                          workers=workers, entry_scale=entry_scale)
    points = _points(batch)
    return (kostlan_check(points, label="_n50") + intensity_check(batch, label="_n50")
            + outside_disk_check(points, label="_n50"))


def conditioning_family(seed, scale, workers, entry_scale) -> list[CheckResult]:
    results = []
    for n in (1, 2, 3):
        batch = pipelines.sample_matrix_batch(n, seed=seed + n, count=_sized(10_000, scale),
                                              workers=workers, entry_scale=entry_scale)
        results += conditioning_probability_check(_points(batch))
    return results


def projected_family(seed, scale, workers, entry_scale) -> list[CheckResult]:
    results = []
    for rad in (0.5, 1.0, 2.0):
        stream, base = (seed + 10, 100_000) if rad == 0.5 else (seed + int(10 * rad) + 20, 10_000)
        batch = pipelines.GinibreDiskSampler(rad).sample_batch(
            stream, _sized(base, scale), workers=workers)
        results += hole_and_count_check([len(s) for s in batch], rad, label=f"_r{rad}")
    return results + intensity_check(batch, label="_r2")


def equivalence_family(seed, scale, workers, entry_scale) -> list[CheckResult]:
    m = _sized(10_000, scale)
    results = []
    for n in (2, 3):
        # the rejection oracle shares one stream, so it runs serially
        rng = np.random.default_rng(np.random.SeedSequence(seed + 40 + n))
        reference = _points([pipelines.conditioned_by_rejection(n, rng) for _ in range(m)])
        candidate = _points(pipelines.ConditionedSampler(n).sample_batch(
            seed + 50 + n, m, workers=workers))
        results += method_equivalence_check(reference, candidate, label=f"_n{n}")
    return results + negative_control_equivalence(reference, seed + 98)


def negative_control_family(seed, scale, workers, entry_scale) -> list[CheckResult]:
    return negative_control_kostlan(seed + 99)


FAMILIES = (closed_form_family, kostlan_family, conditioning_family,
            projected_family, equivalence_family, negative_control_family)


def holm(checks: list[CheckResult]) -> None:
    """Holm's step-down, in place, over the checks with a tolerance.pvalue.

    Step k (from 0) of the m ascending p-values has level FAMILY_LEVEL / (m - k),
    recorded as tolerance.family_level. Checks fail up to the first step
    whose p exceeds its level, and pass from it on; a NaN p sorts first
    and fails.
    """
    family = sorted((c for c in checks if "pvalue" in c.tolerance),
                    key=lambda c: c.tolerance["pvalue"] if c.tolerance["pvalue"] >= 0 else -1.0)
    rejecting = True
    for k, check in enumerate(family):
        step_level = FAMILY_LEVEL / (len(family) - k)
        rejecting = rejecting and not (check.tolerance["pvalue"] > step_level)
        check.tolerance["family_level"] = step_level
        check.passed = not rejecting


def run_validation_suite(seed: int, scale: float = 1.0, workers: int = 1,
                         entry_scale: float = 1.0) -> ValidationReport:
    """The full desk-scale suite; scale < 1 shrinks every batch size.

    entry_scale != 1 skews the Gaussian entry variance (fault injection
    for negative-control demonstrations) and is expected to fail.
    """
    t0 = time.perf_counter()
    checks = [c for family in FAMILIES for c in family(seed, scale, workers, entry_scale)]
    holm(checks)
    return ValidationReport(seed=seed, checks=checks, runtime_seconds=time.perf_counter() - t0)
