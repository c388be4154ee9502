import math

import mpmath
import numpy as np
import pytest
from scipy import integrate

from ginibre.specfun import (
    log_factorial,
    log_regularized_lower_gamma,
    log_regularized_upper_gamma,
    regularized_lower_gamma,
    regularized_upper_gamma,
)


class TestRegularizedGamma:
    def test_lower_at_zero(self):
        assert regularized_lower_gamma(1.0, 0.0) == 0.0

    def test_upper_at_zero(self):
        assert regularized_upper_gamma(1.0, 0.0) == 1.0

    def test_closed_form_a1(self):
        # gamma(1, x) = 1 - e^-x
        assert regularized_lower_gamma(1.0, 0.25) == pytest.approx(
            1.0 - math.exp(-0.25), rel=1e-14)
        assert regularized_upper_gamma(1.0, 0.25) == pytest.approx(
            math.exp(-0.25), rel=1e-14)

    def test_closed_form_a2(self):
        # gamma(2, x) = 1 - (1 + x) e^-x
        assert regularized_lower_gamma(2.0, 2.0) == pytest.approx(
            1.0 - 3.0 * math.exp(-2.0), rel=1e-13)

    @pytest.mark.parametrize("a", [0.5, 1.0, 5.0, 50.0])
    @pytest.mark.parametrize("xfac", [0.5, 1.0, 2.0])
    def test_quadrature_oracle(self, a, xfac):
        x = a * xfac
        oracle, err = integrate.quad(
            lambda t: math.exp(-t + (a - 1.0) * math.log(t) - math.lgamma(a)),
            0.0, x, limit=400, epsabs=1e-13, epsrel=1e-13)
        assert err < 2e-11
        assert regularized_lower_gamma(a, x) == pytest.approx(oracle, rel=1e-10, abs=2e-11)

    def test_complementarity(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            a = math.exp(rng.uniform(math.log(1e-2), math.log(1e3)))
            x = math.exp(rng.uniform(math.log(1e-3), math.log(2e3)))
            p = regularized_lower_gamma(a, x)
            q = regularized_upper_gamma(a, x)
            assert abs(p + q - 1.0) < 1e-14

    def test_monotone_in_x(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = math.exp(rng.uniform(-2, 6))
            x1 = math.exp(rng.uniform(-4, 6))
            x2 = x1 * (1.0 + rng.uniform(0.0, 3.0))
            assert regularized_lower_gamma(a, x1) <= regularized_lower_gamma(a, x2) + 1e-15

    def test_finite_sum_identity(self):
        # P(n+1, x) = 1 - e^-x sum_{k<=n} x^k / k!
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(0, 31))
            x = rng.uniform(0.0, 50.0)
            tail = math.fsum(
                math.exp(-x + k * math.log(x) - log_factorial(k)) if x > 0 else (k == 0)
                for k in range(n + 1))
            assert regularized_lower_gamma(n + 1, x) == pytest.approx(
                1.0 - tail, rel=1e-10, abs=1e-10)

    def test_log_forms_deep_tail(self):
        # log P underflow-proof and matching mpmath far in the tail
        lp = log_regularized_lower_gamma(1000.0, 100.0)
        ref = float(mpmath.log(mpmath.gammainc(1000, 0, 100, regularized=True)))
        assert lp == pytest.approx(ref, rel=1e-10)
        lq = log_regularized_upper_gamma(10.0, 900.0)
        refq = float(mpmath.log(mpmath.gammainc(10, 900, mpmath.inf, regularized=True)))
        assert lq == pytest.approx(refq, rel=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            regularized_lower_gamma(0.0, 1.0)
        with pytest.raises(ValueError):
            regularized_lower_gamma(-2.0, 1.0)
        with pytest.raises(ValueError):
            regularized_upper_gamma(1.0, -0.5)


class TestLogFactorial:
    def test_zero(self):
        assert log_factorial(0) == 0.0

    def test_small(self):
        assert log_factorial(5) == pytest.approx(math.log(120.0), rel=1e-15)

    def test_cumulative_oracle(self):
        oracle = math.fsum(math.log(k) for k in range(1, 171))
        assert log_factorial(170) == pytest.approx(oracle, rel=1e-12)

    def test_large_vs_mpmath(self):
        for n in (257, 1000, 25_000):
            ref = float(mpmath.log(mpmath.factorial(n)))
            assert log_factorial(n) == pytest.approx(ref, rel=1e-13)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log_factorial(-1)
