"""The five Ginibre kernels, their eigenfunctions and density oracles.

Kernels: the infinite-rank plane kernel, its rank-N truncation, the
projection onto a centered disk (with incomplete-gamma eigenvalues), the
truncated-projected combination, and the rank-N kernel conditioned to N
points on the disk of radius sqrt(N).

SpectrumProfile is the one source of kernel coefficients: the disk
eigenvalues lambda_n = P(n+1, R^2), 1 - lambda_n, and the basis norms
ln gamma(n+1, R^2) = ln lambda_n + ln n!. spectrum_profile(R) tables the
full-rank spectrum on B_R (the projected route); spectrum_profile(R,
rank=N) that of the rank-N kernel (the Janossy oracle, and at R =
sqrt(N) the conditioned route and the closed forms). A BasisSubset is an
index set of a profile.

All eigenfunction arithmetic is done as (log magnitude, phase): the raw
monomials z^n / sqrt(n!) overflow doubles near n ~ 150, while their
normalized combinations are tame. Linear values only materialize as the
last step of feature_vector, and every kernel series (truncated,
conditioned, and the deviation bound) is a sum over feature_vector.
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
    "conditioned_basis",
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
    so products over the full spectrum never truncate silently (0 for a
    rank-N profile, whose spectrum ends at count = N).
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


def spectrum_profile(radius: float, epsilon: float = 1e-12,
                     rank: int | None = None) -> SpectrumProfile:
    """Build the eigenvalue profile of the Ginibre kernel projected on B_R.

    Without a rank, the stored prefix ends at the first n with
    lambda_n < epsilon and n > R^2 (the spectrum decays super-exponentially
    past n ~ R^2); the remaining mass goes into tail_log / trace
    accumulators. With rank=N the profile is that of the rank-N kernel
    projected on B_R: exactly the indices n < N, and no tail.
    """
    if radius < 0.0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if rank is not None and rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    r2 = radius * radius
    # Bennett's bound P(X >= r2 + d) <= exp(-d^2 / (2 (r2 + d/3))) for
    # X ~ Poisson(r2) puts lambda_n below both stopping levels at the table end.
    level = -math.log(min(epsilon, math.exp(_TAIL_CUTOFF_LOG)))
    size = rank if rank is not None else math.ceil(
        r2 + level / 3.0 + math.sqrt(level * level / 9.0 + 2.0 * level * r2)) + 2
    n = np.arange(size)
    log_lam = log_regularized_lower_gamma(n + 1, r2)
    lam = np.exp(log_lam)
    if rank is None:
        count = int(np.argmax((lam < epsilon) & (n > r2)))
        end = count + int(np.argmax(log_lam[count:] < _TAIL_CUTOFF_LOG))
    else:
        count = end = rank
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
    sqrt(pi gamma(n+1, R^2)) on the disk of the profile's radius R. The
    norms ln gamma(n+1, R^2) = ln lambda_n + ln n! are read from the
    profile, so every index must lie in its table.
    """

    profile: SpectrumProfile
    indices: tuple[int, ...]
    _norm_logs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.profile.radius <= 0.0:
            raise ValueError("radius must be positive")
        idx = np.array(self.indices, dtype=np.int64)
        if np.any((idx < 0) | (idx >= self.profile.count)):
            raise ValueError(f"indices must lie in 0..{self.profile.count - 1}")
        norm_logs = self.profile.log_eigenvalues[idx] + log_factorial(idx)
        object.__setattr__(self, "_norm_logs", norm_logs)

    @property
    def radius(self) -> float:
        return self.profile.radius

    @property
    def size(self) -> int:
        return len(self.indices)

    def log_gamma_norms(self) -> np.ndarray:
        """log gamma(i+1, R^2) for each member index i."""
        return self._norm_logs


def conditioned_basis(n_points: int) -> BasisSubset:
    """All N eigenfunctions of the rank-N kernel on B_sqrt(N).

    The basis of the conditioned kernel, shared by the conditioned
    sampler, the kernel itself and its deviation bound.
    """
    if n_points < 1:
        raise ValueError("rank must be >= 1")
    return BasisSubset(spectrum_profile(math.sqrt(n_points), rank=n_points),
                       tuple(range(n_points)))


def feature_vector(basis: BasisSubset, z) -> np.ndarray:
    """(psi_i(z))_{i in basis}; the zero vector outside the basis disk.

    psi_i is the disk eigenfunction z^i e^{-|z|^2/2} / sqrt(pi gamma(i+1,
    R^2)), evaluated in log space and exponentiated last. Accepts a scalar or an array of points; the indexed axis is last for
    scalars (shape (n,)) and first-from-last for arrays (shape (n, m)).
    """
    zs = np.asarray(z, dtype=complex)
    scalar = zs.ndim == 0
    zs = np.atleast_1d(zs)
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
    out = np.where(inside[None, :], out, 0.0)
    return out[:, 0] if scalar else out


# ---------------------------------------------------------------------------
# kernel evaluation


def ginibre_kernel(z1, z2):
    """Plane Ginibre kernel (1/pi) e^{z1 conj(z2)} e^{-(|z1|^2+|z2|^2)/2}, broadcasting."""
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    expo = z1 * z2.conj() - 0.5 * (np.abs(z1) ** 2 + np.abs(z2) ** 2)
    # Re(expo) <= 0 always, so this cannot overflow.
    out = np.exp(expo) / math.pi
    return complex(out) if out.ndim == 0 else out


def _kernel(basis: BasisSubset, z1, z2):
    """sum_{i in basis} psi_i(z1) conj(psi_i(z2)), broadcasting z1 against z2.

    One feature_vector call per side; the einsum sums each pair in the same
    order however many pairs share the call.
    """
    a, b = np.broadcast_arrays(np.asarray(z1, dtype=complex), np.asarray(z2, dtype=complex))
    left = feature_vector(basis, a.ravel())
    right = feature_vector(basis, b.ravel())
    out = np.einsum("nm,nm->m", left, right.conj()).reshape(a.shape)
    return complex(out) if out.ndim == 0 else out


def truncated_kernel(n_rank: int, z1, z2):
    """Rank-N truncation: sum_{n<N} phi_n(z1) conj(phi_n(z2)), broadcasting.

    The plane basis is the rank-N profile at R = inf (eigenvalues 1, norms
    ln n!, no disk cut), built directly: the gammas are undefined at inf.
    """
    if n_rank < 1:
        raise ValueError("rank must be >= 1")
    plane = SpectrumProfile(
        radius=math.inf, epsilon=0.0, eigenvalues=np.ones(n_rank),
        log_eigenvalues=np.zeros(n_rank), log_one_minus=np.full(n_rank, -np.inf),
        tail_log=0.0, trace=float(n_rank))
    return _kernel(BasisSubset(plane, tuple(range(n_rank))), z1, z2)


def conditioned_kernel(n_points: int, z1, z2):
    """Rank-N projection kernel on B_sqrt(N): the truncated process
    conditioned to all N points falling inside that disk.

    z1 and z2 are points or arrays of points that broadcast together; the
    basis is built once per call, so many pairs are best passed at once.
    """
    return _kernel(conditioned_basis(n_points), z1, z2)


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

    prof = spectrum_profile(radius, rank=n_rank)
    log_p, log_q = prof.log_eigenvalues, prof.log_one_minus
    log_hole = prof.log_hole_probability()
    if k == 0:
        return math.exp(log_hole)

    phi = feature_vector(BasisSubset(prof, tuple(range(n_rank))), pts).T  # (k, N)

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
    |z1| = |z2| = sqrt|w|, so the supremum reduces to a polar grid of
    pairs (s e^{it}, s) with s <= radius, where
    K~^N(s e^{it}, s) = sum_n psi_n(s)^2 e^{int}.
    """
    basis = conditioned_basis(n_rank)
    s = np.sqrt(np.linspace(0.0, radius * radius, grid))
    t = np.linspace(0.0, math.pi, grid)
    psi = feature_vector(basis, s).real
    approx = (psi * psi).T @ np.exp(1j * np.outer(basis.indices, t))
    exact = ginibre_kernel(s[:, None] * np.exp(1j * t), s[:, None])
    return float(np.abs(exact - approx).max())
