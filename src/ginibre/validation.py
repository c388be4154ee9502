"""Quantitative law checks: closed forms vs Monte Carlo, with pass/fail.

Tolerance conventions (uniform across the suite so reports are machine
checkable): Monte Carlo moments use z-scores with the standard deviation
taken from the theoretical law; frequency checks likewise; KS tests run
at level 0.01 against exact finite-N distribution functions built from
the incomplete-gamma module; deterministic identities use relative or
absolute slack of 1e-8 / 1e-12 as stated per check. Every theoretical
value is recomputed from closed forms at report time.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as scipy_stats

from . import kernels, pipelines
from .records import SampleSet
from .specfun import log_regularized_lower_gamma

__all__ = [
    "CheckResult",
    "ValidationReport",
    "delta_n",
    "kostlan_check",
    "intensity_check",
    "hole_and_count_check",
    "run_validation_suite",
]

SCHEMA_VERSION = 1

KS_LEVEL = 0.01


@dataclass
class CheckResult:
    name: str
    theoretical: float
    empirical: float
    tolerance: dict
    sample_size: int
    passed: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "theoretical": self.theoretical,
            "empirical": self.empirical,
            "tolerance": self.tolerance,
            "sample_size": self.sample_size,
            "passed": bool(self.passed),
        }


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

    def add(self, check: CheckResult) -> None:
        self.checks.append(check)

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
        tolerance={"rule": "z-score", "limit": limit, "z": z, "sigma": sigma},
        sample_size=n, passed=z <= limit,
    )


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


def _matrix_rank(samples: list[SampleSet]) -> int:
    ranks = {s.params.get("N") for s in samples}
    if len(ranks) != 1:
        raise ValueError(f"batch mixes ranks: {sorted(ranks)}")
    return int(ranks.pop())


def kostlan_check(samples: list[SampleSet], report: ValidationReport,
                  label: str = "") -> None:
    """Mean/variance of sum |X_i|^2 against N(N+1)/2 (3 sigma) and KS of
    max |X_i|^2 against its exact product CDF (level 0.01)."""
    n = _matrix_rank(samples)
    m = len(samples)
    k = n * (n + 1) / 2.0
    sums = np.array([float(np.sum(np.abs(s.points) ** 2)) for s in samples])
    maxes = np.array([float(np.max(np.abs(s.points) ** 2)) for s in samples])

    report.add(_z_check(f"kostlan_mean{label}", k, float(sums.mean()),
                        math.sqrt(k / m), m))
    mu4 = 3.0 * k * k + 6.0 * k
    report.add(_z_check(f"kostlan_variance{label}", k, float(sums.var(ddof=1)),
                        _sample_variance_sigma(mu4, k, m), m))
    pvalue = float(scipy_stats.kstest(maxes, kostlan_max_cdf(n)).pvalue)
    report.add(CheckResult(
        name=f"kostlan_max_ks{label}", theoretical=1.0, empirical=pvalue,
        tolerance={"rule": "ks-pvalue", "level": KS_LEVEL},
        sample_size=m, passed=pvalue > KS_LEVEL,
    ))


def _radial_fractions(radii: np.ndarray, edges: np.ndarray, total: int) -> np.ndarray:
    counts, _ = np.histogram(radii, bins=edges)
    return counts / total


def intensity_check(samples: list[SampleSet], report: ValidationReport,
                    bins: int = 32, l1_limit: float = 0.03,
                    label: str = "") -> None:
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
        n = _matrix_rank(samples)
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

    observed = _radial_fractions(radii, edges, total)
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
    report.add(CheckResult(
        name=f"intensity_l1_{method}{label}", theoretical=0.0, empirical=l1,
        tolerance={"rule": "l1-absolute", "limit": limit_eff,
                   "stated_limit": l1_limit, "noise_mean": noise_mean},
        sample_size=len(samples), passed=l1 <= limit_eff,
    ))


def _quad_fraction(dens, lo: float, hi: float, nodes: int = 64) -> float:
    x, w = np.polynomial.legendre.leggauss(nodes)
    mid = 0.5 * (hi + lo)
    half = 0.5 * (hi - lo)
    return float(w @ dens(mid + half * x) * half)


def hole_and_count_check(samples: list[SampleSet], radius: float,
                         report: ValidationReport, label: str = "") -> None:
    """Projected route: hole frequency, mean count, count variance.

    The hole check is a 3-sigma z-test when the expected number of empty
    samples is large; in the rare-event regime (< 50 expected) the normal
    approximation undercovers, so an exact two-sided Poisson test at
    level 1e-3 is used instead.
    """
    prof = kernels.spectrum_profile(radius)
    lam = prof.eigenvalues
    m = len(samples)
    counts = np.array([len(s) for s in samples], dtype=float)

    hole_p = math.exp(prof.log_hole_probability())
    hole_events = int(np.sum(counts == 0))
    if hole_p * m >= 50.0:
        report.add(_z_check(f"hole_frequency{label}", hole_p,
                            float(np.mean(counts == 0)),
                            math.sqrt(hole_p * (1 - hole_p) / m), m))
    else:
        lam_poisson = hole_p * m
        lower = float(scipy_stats.poisson.cdf(hole_events, lam_poisson))
        upper = float(scipy_stats.poisson.sf(hole_events - 1, lam_poisson))
        pvalue = min(1.0, 2.0 * min(lower, upper))
        report.add(CheckResult(
            name=f"hole_frequency{label}", theoretical=hole_p,
            empirical=hole_events / m,
            tolerance={"rule": "poisson-two-sided", "level": 1e-3,
                       "pvalue": pvalue, "expected_events": lam_poisson},
            sample_size=m, passed=pvalue > 1e-3,
        ))

    mean_th = float(lam.sum())
    var_th = float((lam * (1 - lam)).sum())
    report.add(_z_check(f"count_mean{label}", mean_th, float(counts.mean()),
                        math.sqrt(var_th / m), m))

    mu4 = float((lam * (1 - lam) * (1 - 6 * lam * (1 - lam))).sum()) + 3 * var_th ** 2
    report.add(_z_check(f"count_variance{label}", var_th, float(counts.var(ddof=1)),
                        _sample_variance_sigma(mu4, var_th, m), m, limit=4.0))


def outside_disk_check(samples: list[SampleSet], report: ValidationReport,
                       label: str = "") -> None:
    """Mean number of matrix-route points beyond B_sqrt(N) vs delta(N)."""
    n = _matrix_rank(samples)
    m = len(samples)
    root_n = math.sqrt(n)
    outside = np.array([float(np.sum(s.radii() > root_n)) for s in samples])
    q = np.exp(kernels.spectrum_profile(root_n, rank=n).log_one_minus)
    sigma = math.sqrt(float((q * (1 - q)).sum()) / m)
    report.add(_z_check(f"outside_mean_delta{label}", delta_n(n),
                        float(outside.mean()), sigma, m))


def conditioning_probability_check(samples: list[SampleSet],
                                   report: ValidationReport,
                                   label: str = "") -> None:
    """Frequency of all matrix-route points inside B_sqrt(N)."""
    n = _matrix_rank(samples)
    m = len(samples)
    root_n = math.sqrt(n)
    inside = np.array([bool(np.all(s.radii() <= root_n)) for s in samples])
    p = pipelines.acceptance_probability_all_in_disk(n)
    report.add(_z_check(f"conditioning_probability_n{n}{label}", p,
                        float(inside.mean()), math.sqrt(p * (1 - p) / m), m))


def _nearest_neighbor_distances(samples: list[SampleSet]) -> np.ndarray:
    out = []
    for s in samples:
        pts = s.points
        if len(pts) < 2:
            continue
        d = np.abs(pts[:, None] - pts[None, :])
        np.fill_diagonal(d, np.inf)
        out.append(d.min(axis=1))
    return np.concatenate(out) if out else np.empty(0)


def method_equivalence_check(reference: list[SampleSet],
                             candidate: list[SampleSet],
                             report: ValidationReport, label: str = "") -> None:
    """Two-sample KS on radii and nearest-neighbor distances."""
    for name, extract in (
        ("radius", lambda batch: np.concatenate([s.radii() for s in batch])),
        ("nearest_neighbor", _nearest_neighbor_distances),
    ):
        a = extract(reference)
        b = extract(candidate)
        pvalue = float(scipy_stats.ks_2samp(a, b).pvalue)
        report.add(CheckResult(
            name=f"equivalence_{name}{label}", theoretical=1.0, empirical=pvalue,
            tolerance={"rule": "ks-pvalue", "level": KS_LEVEL},
            sample_size=len(a) + len(b), passed=pvalue > KS_LEVEL,
        ))


# ---------------------------------------------------------------------------
# deterministic closed-form checks


def trace_identity_checks(report: ValidationReport,
                          radii=(0.5, 1.0, 3.0, 10.0)) -> None:
    for rad in radii:
        prof = kernels.spectrum_profile(rad)
        report.add(_rel_check(f"trace_identity_r{rad}", rad * rad, prof.trace, 1e-8))


def circular_law_bound_checks(report: ValidationReport, n_rank: int = 600,
                              offsets=(0.2, 0.4, 0.6, 0.8, 1.0)) -> None:
    """rho_1^N between the asymptotic falloff brackets near sqrt(N)."""
    root_n = math.sqrt(n_rank)
    worst = 0.0
    for u in offsets:
        g = math.exp(-2 * u * u) / (2 * math.sqrt(2) * u * math.pi ** 1.5)
        inside = kernels.radial_intensity(n_rank, root_n - u)
        outside = kernels.radial_intensity(n_rank, root_n + u)
        worst = max(worst, (1 / math.pi - g) - inside, outside - g)
    report.add(CheckResult(
        name=f"circular_law_bounds_n{n_rank}", theoretical=0.0, empirical=worst,
        tolerance={"rule": "absolute", "limit": 1e-12},
        sample_size=0, passed=worst <= 1e-12,
    ))


def delta_asymptotic_checks(report: ValidationReport,
                            ranks=(100, 400, 900)) -> None:
    """delta(N) ~ sqrt(N / 2 pi): bracket at the largest rank, monotone
    approach of the ratio across the given ranks."""
    ratios = [delta_n(n) / math.sqrt(n / (2 * math.pi)) for n in ranks]
    final = ratios[-1]
    report.add(CheckResult(
        name=f"delta_ratio_n{ranks[-1]}", theoretical=1.0, empirical=final,
        tolerance={"rule": "bracket", "low": 0.9, "high": 1.1},
        sample_size=0, passed=0.9 <= final <= 1.1,
    ))
    gaps = [abs(r - 1.0) for r in ratios]
    monotone = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    report.add(CheckResult(
        name="delta_ratio_monotone", theoretical=0.0,
        empirical=float(gaps[-1]),
        tolerance={"rule": "monotone-decreasing", "gaps": gaps},
        sample_size=0, passed=monotone,
    ))


def negative_control_kostlan(report: ValidationReport, seed: int,
                             n_rank: int = 50, m: int = 2000) -> None:
    """Uniform disk points of matched mean radius must fail the Kostlan
    mean test; passing here means the positive test has teeth."""
    rng = np.random.default_rng(seed)
    root_n = math.sqrt(n_rank)
    fake = []
    for i in range(m):
        r = root_n * np.sqrt(rng.random(n_rank))
        th = rng.uniform(-math.pi, math.pi, n_rank)
        fake.append(SampleSet(points=r * np.exp(1j * th), method="matrix",
                              params={"N": n_rank}, seed=-1))
    probe = ValidationReport(seed=seed)
    kostlan_check(fake, probe)
    mean_failed = not probe.checks[0].passed
    report.add(CheckResult(
        name="negative_control_uniform_fails_kostlan", theoretical=1.0,
        empirical=float(mean_failed),
        tolerance={"rule": "must-fail", "probe_z": probe.checks[0].tolerance["z"]},
        sample_size=m, passed=mean_failed,
    ))


# ---------------------------------------------------------------------------
# suite driver


def run_validation_suite(seed: int, scale: float = 1.0, workers: int = 1,
                         entry_scale: float = 1.0) -> ValidationReport:
    """The full desk-scale suite; scale < 1 shrinks every batch size.

    entry_scale != 1 skews the Gaussian entry variance (fault injection
    for negative-control demonstrations) and is expected to fail.
    """
    t0 = time.perf_counter()
    report = ValidationReport(seed=seed)

    trace_identity_checks(report)
    circular_law_bound_checks(report)
    delta_asymptotic_checks(report)

    def sized(base: int) -> int:
        return max(1000, int(base * scale))

    # matrix route at N=50: kostlan moments + KS, intensity, delta(N)
    m_kostlan = sized(10_000)
    batch = pipelines.sample_matrix_batch(50, seed=seed, count=m_kostlan,
                                          workers=workers, entry_scale=entry_scale)
    kostlan_check(batch, report, label="_n50")
    intensity_check(batch, report, label="_n50")
    outside_disk_check(batch, report, label="_n50")

    # conditioning probabilities at N = 1, 2, 3
    for n in (1, 2, 3):
        cond = pipelines.sample_matrix_batch(n, seed=seed + n, count=sized(10_000),
                                             workers=workers, entry_scale=entry_scale)
        conditioning_probability_check(cond, report)

    # projected route: hole probability at R=0.5, count law at R in {1, 2}
    hole_sampler = pipelines.GinibreDiskSampler(0.5)
    hole_batch = hole_sampler.sample_batch(seed + 10, sized(100_000), workers=workers)
    hole_and_count_check(hole_batch, 0.5, report, label="_r0.5")
    for rad in (1.0, 2.0):
        sampler = pipelines.GinibreDiskSampler(rad)
        batch_r = sampler.sample_batch(seed + int(10 * rad) + 20, sized(10_000),
                                       workers=workers)
        hole_and_count_check(batch_r, rad, report, label=f"_r{rad}")
    intensity_check(batch_r, report, label="_r2")

    # method equivalence at N in {2, 3}
    m_eq = sized(10_000)
    for n in (2, 3):
        rng = np.random.default_rng(np.random.SeedSequence(seed + 40 + n))
        reference = [pipelines.conditioned_by_rejection(n, rng) for _ in range(m_eq)]
        sampler = pipelines.ConditionedSampler(n)
        candidate = sampler.sample_batch(seed + 50 + n, m_eq, workers=workers)
        method_equivalence_check(reference, candidate, report, label=f"_n{n}")

    negative_control_kostlan(report, seed + 99)

    report.runtime_seconds = time.perf_counter() - t0
    return report
