"""Regularized incomplete gamma functions at integer shape, in log space.

Everything downstream (kernel eigenvalues, hole probabilities, point-count
laws, the Kostlan law) reduces to P(a, x) and Q(a, x) = 1 - P(a, x) at a
positive integer shape a. There they are Poisson tails (Abramowitz-Stegun
6.5.13):

    Q(n+1, x) = sum_{k<=n} e^-x x^k / k!,   P(n+1, x) = sum_{k>n} e^-x x^k / k!.

Both are computed from one table of log Poisson weights per distinct x,
accumulated with logaddexp, so they stay finite where P or Q underflows
doubles. The tail away from the Poisson mode is summed directly (P for
x < a + 1, Q otherwise) and the other side comes from log1p(-exp(.)).
Every function broadcasts over positive-integer `a` and finite `x >= 0`;
scalars in give floats out. The target relative accuracy is 1e-10.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln

__all__ = [
    "regularized_lower_gamma",
    "regularized_upper_gamma",
    "log_regularized_lower_gamma",
    "log_regularized_upper_gamma",
    "log_factorial",
]


def _scalar_or_array(values: np.ndarray):
    return float(values) if values.ndim == 0 else values


def log_factorial(n):
    """ln(n!) for integer n >= 0 (scalar or array)."""
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError(f"log_factorial requires n >= 0, got {n}")
    return _scalar_or_array(gammaln(n + 1.0))


def _log_poisson_tail(n: np.ndarray, x: np.ndarray, upper: bool) -> np.ndarray:
    """ln sum_{k<n} (upper) or ln sum_{k>=n} (lower) of e^-x x^k / k!.

    n and x are flat arrays with integer n >= 1 and x > 0. Summation runs
    over k in one window per call, reaching W = 12 sqrt(max x) + 40 terms
    past the shapes, where the dropped terms are below 1e-30 of the sum.
    """
    if n.size == 0:
        return np.empty(0)
    xs, row = np.unique(x, return_inverse=True)
    w = math.ceil(12.0 * math.sqrt(xs[-1])) + 40
    n = n.astype(np.int64)
    if upper:
        k_lo, k_hi = max(0, int(n.min()) - 1 - w), int(n.max()) - 1
    else:
        k_lo, k_hi = int(n.min()), int(n.max()) + w
    k = np.arange(k_lo, k_hi + 1)
    log_pmf = k * np.log(xs)[:, None] - xs[:, None] - gammaln(k + 1.0)
    if upper:
        return np.logaddexp.accumulate(log_pmf, axis=1)[row, n - 1 - k_lo]
    return np.logaddexp.accumulate(log_pmf[:, ::-1], axis=1)[row, k_hi - n]


def _log_gamma(a, x, upper: bool):
    a, x = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(x, dtype=float))
    if not np.all((a >= 1.0) & (a == np.floor(a))):
        raise ValueError(f"shape parameter must be a positive integer, got a={a}")
    if not np.all((x >= 0.0) & np.isfinite(x)):
        raise ValueError(f"argument must be finite and nonnegative, got x={x}")
    out = np.full(a.shape, 0.0 if upper else -math.inf)  # Q(a, 0) = 1, P(a, 0) = 0
    below = x < a + 1.0
    for direct_upper, mask in ((False, below & (x > 0.0)), (True, ~below)):
        tail = _log_poisson_tail(a[mask], x[mask], direct_upper)
        out[mask] = tail if direct_upper == upper else np.log1p(-np.exp(tail))
    return _scalar_or_array(out)


def log_regularized_lower_gamma(a, x):
    """ln P(a, x), accurate even when P underflows linear doubles."""
    return _log_gamma(a, x, upper=False)


def log_regularized_upper_gamma(a, x):
    """ln Q(a, x), accurate even when Q underflows linear doubles."""
    return _log_gamma(a, x, upper=True)


def regularized_lower_gamma(a, x):
    """P(a, x) = gamma(a, x) / Gamma(a), in [0, 1]."""
    return _scalar_or_array(np.exp(log_regularized_lower_gamma(a, x)))


def regularized_upper_gamma(a, x):
    """Q(a, x) = Gamma(a, x) / Gamma(a) = 1 - P(a, x), in [0, 1].

    Summed directly when x is large, so the result keeps full relative
    accuracy where P(a, x) is close to one.
    """
    return _scalar_or_array(np.exp(log_regularized_upper_gamma(a, x)))
