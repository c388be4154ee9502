"""The five Ginibre kernels, their eigenfunctions and density oracles.

Kernels: the infinite-rank plane kernel, its rank-N truncation, the
projection onto a centered disk (with incomplete-gamma eigenvalues), the
truncated-projected combination, and the rank-N kernel conditioned to N
points on the disk of radius sqrt(N).

All eigenfunction arithmetic is done as (log magnitude, phase): the raw
monomials z^n / sqrt(n!) overflow doubles near n ~ 150, while their
normalized combinations are tame. Linear values only materialize as the
last step of feature_vector and of the kernel series.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .specfun import (
    log_factorial,
    log_regularized_lower_gamma,
    log_regularized_upper_gamma,
    regularized_upper_gamma,
)

__all__ = [
    "SpectrumProfile",
    "spectrum_profile",
    "BasisSubset",
    "feature_vector",
    "ginibre_kernel",
    "truncated_kernel",
    "conditioned_kernel",
    "radial_intensity",
    "IntensityBounds",
    "intensity_bounds",
    "janossy_oracle",
    "log_joint_density",
    "conditioned_kernel_max_deviation",
]

_LOG_PI = math.log(math.pi)

# Eigenvalues below this are dropped from tail accumulation entirely.
_TAIL_CUTOFF_LOG = math.log(1e-40)


# ---------------------------------------------------------------------------
# spectrum of the disk-projected kernel


@dataclass(frozen=True)
class SpectrumProfile:
    """Eigenvalues lambda_n = P(n+1, R^2) of the Ginibre kernel on B_R.

    Stores the first `count` eigenvalues in both linear and log form along
    with log(1 - lambda_n); `tail_log` is sum_{n >= count} log(1 - lambda_n)
    so products over the full spectrum never truncate silently.
    """

    radius: float
    epsilon: float
    eigenvalues: np.ndarray
    log_eigenvalues: np.ndarray
    log_one_minus: np.ndarray
    tail_log: float
    trace: float

    @property
    def count(self) -> int:
        return len(self.eigenvalues)

    def log_hole_probability(self) -> float:
        """log prod_{n>=0} (1 - lambda_n): no points on the disk."""
        return float(self.log_one_minus.sum() + self.tail_log)


def spectrum_profile(radius: float, epsilon: float = 1e-12) -> SpectrumProfile:
    """Build the eigenvalue profile of the Ginibre kernel projected on B_R.

    The stored prefix ends at the first n with lambda_n < epsilon and
    n > R^2 (the spectrum decays super-exponentially past n ~ R^2); the
    remaining mass goes into tail_log / trace accumulators.
    """
    if radius < 0.0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    r2 = radius * radius
    # Bennett's bound P(X >= r2 + d) <= exp(-d^2 / (2 (r2 + d/3))) for
    # X ~ Poisson(r2) puts lambda_n below both stopping levels at the table end.
    level = -math.log(min(epsilon, math.exp(_TAIL_CUTOFF_LOG)))
    size = math.ceil(r2 + level / 3.0 + math.sqrt(level * level / 9.0 + 2.0 * level * r2)) + 2
    n = np.arange(size)
    log_lam = log_regularized_lower_gamma(n + 1, r2)
    lam = np.exp(log_lam)
    count = int(np.argmax((lam < epsilon) & (n > r2)))
    end = count + int(np.argmax(log_lam[count:] < _TAIL_CUTOFF_LOG))
    return SpectrumProfile(
        radius=float(radius),
        epsilon=float(epsilon),
        eigenvalues=lam[:count],
        log_eigenvalues=log_lam[:count],
        log_one_minus=log_regularized_upper_gamma(n[:count] + 1, r2),
        tail_log=float(np.log1p(-lam[count:end]).sum()),
        trace=float(lam[:end].sum()),
    )


@dataclass(frozen=True)
class BasisSubset:
    """An ordered set of disk-orthonormal eigenfunctions.

    Index n maps to the L2-normalized function z^n e^{-|z|^2/2} /
    sqrt(pi gamma(n+1, R^2)) on the disk of radius `radius`; `scale`
    applies a homothety (functions live on the disk of radius
    scale * radius and stay orthonormal).
    """

    radius: float
    indices: tuple[int, ...]
    scale: float = 1.0
    _norm_logs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")
        if any(i < 0 for i in self.indices):
            raise ValueError("indices must be nonnegative")
        r2 = self.radius * self.radius
        idx = np.array(self.indices, dtype=np.int64)
        norm_logs = log_regularized_lower_gamma(idx + 1, r2) + log_factorial(idx)
        object.__setattr__(self, "_norm_logs", norm_logs)

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def disk_radius(self) -> float:
        """Radius of the disk the (scaled) functions live on."""
        return self.radius * self.scale

    def log_gamma_norms(self) -> np.ndarray:
        """log gamma(i+1, R^2) for each member index i."""
        return self._norm_logs


def feature_vector(basis: BasisSubset, z) -> np.ndarray:
    """(psi_i(z))_{i in basis}; the zero vector outside the basis disk.

    psi_i is the disk eigenfunction z^i e^{-|z|^2/2} / sqrt(pi gamma(i+1,
    R^2)), evaluated in log space and exponentiated last. Accepts a scalar or an array of points; the indexed axis is last for
    scalars (shape (n,)) and first-from-last for arrays (shape (n, m)).
    """
    zs = np.asarray(z, dtype=complex)
    scalar = zs.ndim == 0
    zs = np.atleast_1d(zs) / basis.scale
    absz = np.abs(zs)
    inside = absz <= basis.radius * (1.0 + 1e-12)
    idx = np.array(basis.indices)[:, None]
    logmag = np.where(
        absz[None, :] > 0.0,
        idx * np.log(np.where(absz > 0.0, absz, 1.0))[None, :],
        np.where(idx == 0, 0.0, -np.inf),
    )
    logmag = logmag - 0.5 * absz[None, :] ** 2
    logmag = logmag - 0.5 * (_LOG_PI + basis.log_gamma_norms())[:, None]
    angles = idx * np.angle(zs)[None, :]
    out = np.exp(logmag) * np.exp(1j * angles)
    out = np.where(inside[None, :], out, 0.0) / basis.scale
    return out[:, 0] if scalar else out


# ---------------------------------------------------------------------------
# kernel evaluation


def ginibre_kernel(z1: complex, z2: complex) -> complex:
    """Plane Ginibre kernel (1/pi) e^{z1 conj(z2)} e^{-(|z1|^2+|z2|^2)/2}."""
    z1 = complex(z1)
    z2 = complex(z2)
    expo = z1 * z2.conjugate() - 0.5 * (abs(z1) ** 2 + abs(z2) ** 2)
    # Re(expo) <= 0 always, so this cannot overflow.
    return np.exp(expo) / math.pi


def _kernel_sum(log_coeffs: np.ndarray, z1: complex, z2: complex) -> complex:
    """(1/pi) e^{-(|z1|^2+|z2|^2)/2} sum_n exp(log_coeffs[n]) (z1 conj z2)^n.

    The peak term's log magnitude is folded into the damping exponent, so
    monomials never materialize outside the double range.
    """
    w = z1 * z2.conjugate()
    absw = abs(w)
    ns = np.arange(len(log_coeffs))
    if absw > 0.0:
        logmag = log_coeffs + ns * math.log(absw)
        angles = ns * np.angle(w)
    else:
        logmag = np.where(ns == 0, log_coeffs, -np.inf)
        angles = np.zeros(len(ns))
    peak = float(logmag.max())
    total = np.sum(np.exp(logmag - peak) * np.exp(1j * angles))
    scale = peak - 0.5 * (abs(z1) ** 2 + abs(z2) ** 2) - _LOG_PI
    return complex(total) * math.exp(scale)


def truncated_kernel(n_rank: int, z1: complex, z2: complex) -> complex:
    """Rank-N truncation: sum_{n<N} phi_n(z1) conj(phi_n(z2))."""
    if n_rank < 1:
        raise ValueError("rank must be >= 1")
    log_coeffs = -log_factorial(np.arange(n_rank))
    return _kernel_sum(log_coeffs, complex(z1), complex(z2))


def conditioned_kernel(n_points: int, z1: complex, z2: complex) -> complex:
    """Rank-N projection kernel on B_sqrt(N): the truncated process
    conditioned to all N points falling inside that disk."""
    if n_points < 1:
        raise ValueError("rank must be >= 1")
    z1 = complex(z1)
    z2 = complex(z2)
    radius = math.sqrt(n_points)
    if abs(z1) > radius * (1 + 1e-12) or abs(z2) > radius * (1 + 1e-12):
        return 0.0j
    basis = BasisSubset(radius, tuple(range(n_points)))
    return _kernel_sum(-basis.log_gamma_norms(), z1, z2)


def radial_intensity(n_rank: int, r):
    """One-point density of the rank-N truncated process at radius r.

    Equals (1/pi) e^{-r^2} sum_{k<N} r^{2k}/k! = Q(N, r^2) / pi. Accepts
    a scalar or an array of radii.
    """
    if n_rank < 1:
        raise ValueError("rank must be >= 1")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("radius must be nonnegative")
    return regularized_upper_gamma(n_rank, r * r) / math.pi


@dataclass(frozen=True)
class IntensityBounds:
    """Closed-form bracket around radial_intensity near the disk edge.

    lower bounds the density from below (valid for r^2 < N+1); upper from
    above (valid for r^2 >= N); in the overlap both are set.
    """

    lower: float | None
    upper: float | None


def intensity_bounds(n_rank: int, r: float) -> IntensityBounds:
    if n_rank < 1:
        raise ValueError("rank must be >= 1")
    if r < 0.0:
        raise ValueError("radius must be nonnegative")
    n = n_rank
    r2 = r * r
    if r == 0.0:
        log_core = -math.inf if n >= 1 else 0.0
    else:
        log_core = -r2 + 2 * n * math.log(r) - log_factorial(n)
    core = math.exp(log_core) / math.pi
    lower = None
    upper = None
    if r2 < n + 1:
        lower = 1.0 / math.pi - core * (n + 1) / (n + 1 - r2)
    if r2 >= n:
        upper = math.inf if r2 == n else core * n / (r2 - n)
    return IntensityBounds(lower=lower, upper=upper)


# ---------------------------------------------------------------------------
# density oracles (testing scale)

_ORACLE_MAX_RANK = 12


def janossy_oracle(n_rank: int, radius: float, points) -> float:
    """k-point Janossy density of the truncated-projected process on B_R.

    Computed two ways and cross-asserted: (i) hole probability times the
    determinant of the quasi-inverse kernel matrix; (ii) the Cauchy-Binet
    subset sum over k-subsets of the N eigenfunction indices. Intended as
    a small-instance oracle, hence the rank cap.
    """
    pts = [complex(z) for z in points]
    k = len(pts)
    if not 1 <= n_rank <= _ORACLE_MAX_RANK:
        raise ValueError(f"rank must be in 1..{_ORACLE_MAX_RANK}")
    if k > n_rank:
        raise ValueError(f"at most {n_rank} points supported, got {k}")
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    if any(abs(z) > radius * (1 + 1e-12) for z in pts):
        raise ValueError("all points must lie in the closed disk")

    r2 = radius * radius
    shapes = np.arange(1, n_rank + 1)
    log_p = log_regularized_lower_gamma(shapes, r2)
    log_q = log_regularized_upper_gamma(shapes, r2)
    log_hole = float(log_q.sum())
    if k == 0:
        return math.exp(log_hole)

    phi = feature_vector(BasisSubset(radius, tuple(range(n_rank))), pts).T  # (k, N)

    # route (i): Det(I - K) * det(J(z_i, z_j)) with J = sum (lam/(1-lam)) phi phi*
    jmat = (phi * np.exp(log_p - log_q)) @ phi.conj().T
    det_route = math.exp(log_hole) * np.linalg.det(jmat).real

    # route (ii): Cauchy-Binet over index subsets
    weighted = phi * np.exp(0.5 * (log_p - log_q))
    subset_sum = 0.0
    for subset in itertools.combinations(range(n_rank), k):
        sub = weighted[:, subset]
        subset_sum += abs(np.linalg.det(sub)) ** 2
    cb_route = math.exp(log_hole) * subset_sum

    scale = max(abs(det_route), abs(cb_route), 1e-300)
    if abs(det_route - cb_route) > 1e-8 * scale:
        raise AssertionError(
            f"janossy routes disagree: det={det_route!r} cauchy-binet={cb_route!r}"
        )
    return det_route


def log_joint_density(n_rank: int, points) -> float:
    """log joint density of the rank-N truncated process at an N-tuple.

    (1/pi^N) prod_{p=0..N} 1/p! e^{-sum |z|^2} prod |z_p - z_q|^2; the
    product of factorials runs to N inclusive, absorbing the 1/N! in the
    determinant normalization.
    """
    pts = [complex(z) for z in points]
    if len(pts) != n_rank:
        raise ValueError("need exactly N points")
    total = -n_rank * _LOG_PI - float(log_factorial(np.arange(n_rank + 1)).sum())
    total -= sum(abs(z) ** 2 for z in pts)
    for p in range(n_rank):
        for q in range(p + 1, n_rank):
            d = abs(pts[p] - pts[q])
            if d == 0.0:
                return -math.inf
            total += 2.0 * math.log(d)
    return total


def conditioned_kernel_max_deviation(n_rank: int, radius: float = 1.0,
                                     grid: int = 200) -> float:
    """Grid estimate of sup |K - K~^N| over pairs in the disk of `radius`.

    Both kernels' moduli depend on (z1, z2) only through w = z1 conj(z2)
    and |z1|^2 + |z2|^2; at fixed w the damping factor is largest at
    |z1| = |z2| = sqrt|w|, so the supremum reduces to a polar grid over w
    with |w| <= radius^2.
    """
    if n_rank < 1:
        raise ValueError("rank must be >= 1")
    basis = BasisSubset(math.sqrt(n_rank), tuple(range(n_rank)))
    inv_gamma = np.exp(-basis.log_gamma_norms())
    rr = np.linspace(0.0, radius * radius, grid)
    th = np.linspace(0.0, math.pi, grid)
    w = rr[:, None] * np.exp(1j * th[None, :])
    powers = w[..., None] ** np.arange(n_rank)
    partial = powers @ inv_gamma
    diff = np.exp(w) - partial
    vals = np.exp(-np.abs(w)) * np.abs(diff) / math.pi
    return float(vals.max())
