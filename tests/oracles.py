"""Small-instance density oracles the tests compare the samplers against.

janossy_oracle is the k-point Janossy density of the truncated-projected
process on B_R, computed two ways and cross-asserted; log_joint_density
is the joint density of the rank-N truncated process at an N-tuple.
Neither is part of the sampler or the validator.
"""

import itertools
import math

import numpy as np

from ginibre.kernels import BasisSubset, feature_vector, spectrum_profile
from ginibre.specfun import log_factorial

_LOG_PI = math.log(math.pi)

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
