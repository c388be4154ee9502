"""Numerically stable special functions used throughout the library.

Everything downstream (kernel eigenvalues, hole probabilities, point-count
laws) reduces to regularized incomplete gamma functions and log factorials, so
these are implemented here once, in log space, with a target relative
accuracy of 1e-10 or better.
"""

from __future__ import annotations

import math

__all__ = [
    "regularized_lower_gamma",
    "regularized_upper_gamma",
    "log_regularized_lower_gamma",
    "log_regularized_upper_gamma",
    "log_factorial",
]

_MAX_ITER = 200_000
_REL_EPS = 1.0e-16

# ln(n!) by cumulative summation; exact up to rounding for small n.
_LOG_FACT_LIMIT = 256
_LOG_FACT_TABLE = [0.0] * (_LOG_FACT_LIMIT + 1)
for _n in range(2, _LOG_FACT_LIMIT + 1):
    _LOG_FACT_TABLE[_n] = _LOG_FACT_TABLE[_n - 1] + math.log(_n)


def log_factorial(n: int) -> float:
    """ln(n!), exact summation for n <= 256, lgamma beyond."""
    if n < 0:
        raise ValueError(f"log_factorial requires n >= 0, got {n}")
    if n <= _LOG_FACT_LIMIT:
        return _LOG_FACT_TABLE[n]
    return math.lgamma(n + 1.0)


def _check_gamma_args(a: float, x: float) -> None:
    if not a > 0.0:
        raise ValueError(f"shape parameter must be positive, got a={a}")
    if x < 0.0:
        raise ValueError(f"argument must be nonnegative, got x={x}")


def _log_lower_series(a: float, x: float) -> float:
    """ln P(a, x) by the ascending series; converges fast for x < a + 1."""
    if x == 0.0:
        return -math.inf
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _REL_EPS:
            # total = sum_k x^k Gamma(a)/Gamma(a+1+k); prefactor restores P
            return math.log(total) + a * math.log(x) - x - math.lgamma(a)
    raise ArithmeticError(f"lower-gamma series did not converge (a={a}, x={x})")


def _log_upper_cf(a: float, x: float) -> float:
    """ln Q(a, x) by the Legendre continued fraction (modified Lentz)."""
    tiny = 1.0e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _REL_EPS:
            return math.log(h) + a * math.log(x) - x - math.lgamma(a)
    raise ArithmeticError(f"upper-gamma fraction did not converge (a={a}, x={x})")


def log_regularized_lower_gamma(a: float, x: float) -> float:
    """ln P(a, x), accurate even when P underflows linear doubles."""
    _check_gamma_args(a, x)
    if x == 0.0:
        return -math.inf
    if x < a + 1.0:
        return _log_lower_series(a, x)
    return math.log1p(-math.exp(_log_upper_cf(a, x)))


def log_regularized_upper_gamma(a: float, x: float) -> float:
    """ln Q(a, x), accurate even when Q underflows linear doubles."""
    _check_gamma_args(a, x)
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return math.log1p(-math.exp(_log_lower_series(a, x)))
    return _log_upper_cf(a, x)


def regularized_lower_gamma(a: float, x: float) -> float:
    """P(a, x) = gamma(a, x) / Gamma(a), in [0, 1]."""
    return math.exp(log_regularized_lower_gamma(a, x))


def regularized_upper_gamma(a: float, x: float) -> float:
    """Q(a, x) = Gamma(a, x) / Gamma(a) = 1 - P(a, x), in [0, 1].

    Computed directly from the continued fraction when x is large, so the
    result keeps full relative accuracy where P(a, x) is close to one.
    """
    return math.exp(log_regularized_upper_gamma(a, x))
