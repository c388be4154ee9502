import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from ginibre import eigen, matrix_sampler, pipelines, validation


class TestMatrixGeneration:
    def test_entry_second_moment(self):
        rng = np.random.default_rng(1)
        entries = matrix_sampler.sample_ginibre_matrix_batch(1, 100_000, rng).ravel()
        m2 = float(np.mean(np.abs(entries) ** 2))
        # |z|^2 ~ Exp(1): var 1
        assert abs(m2 - 1.0) <= 3.0 / math.sqrt(len(entries))

    def test_seed_reproducible(self):
        a = matrix_sampler.sample_ginibre_matrix(6, np.random.default_rng(7))
        b = matrix_sampler.sample_ginibre_matrix(6, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_entries_uncorrelated(self):
        rng = np.random.default_rng(2)
        mats = matrix_sampler.sample_ginibre_matrix_batch(2, 50_000, rng)
        flat = mats.reshape(len(mats), 4)
        parts = np.concatenate([flat.real, flat.imag], axis=1)
        cov = np.cov(parts.T)
        off = cov - np.diag(np.diag(cov))
        # each covariance entry has sd ~ 0.5/sqrt(m)
        assert np.max(np.abs(off)) <= 4 * 0.5 / math.sqrt(len(mats))

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            matrix_sampler.sample_ginibre_matrix(0, np.random.default_rng(0))


class TestTruncatedGinibreSampling:
    def test_exact_point_count(self):
        for n in (1, 4, 17):
            s = pipelines.sample_matrix_batch(n, seed=n, count=1)[0]
            assert len(s) == n
            assert s.method == "matrix"

    def test_kostlan_moments_small(self):
        n, m = 10, 4000
        rng = np.random.default_rng(3)
        eig = eigen.eigenvalues_batch(matrix_sampler.sample_ginibre_matrix_batch(n, m, rng))
        sums = np.sum(np.abs(eig) ** 2, axis=1)
        k = n * (n + 1) / 2.0
        assert abs(sums.mean() - k) <= 3 * math.sqrt(k / m)
        mu4 = 3 * k * k + 6 * k
        sig_var = math.sqrt((mu4 - k * k * (m - 3) / (m - 1)) / m)
        assert abs(sums.var(ddof=1) - k) <= 3 * sig_var

    def test_max_radius_ks_rank_one(self):
        # at N=1, |X|^2 is Exp(1)
        rng = np.random.default_rng(4)
        eig = eigen.eigenvalues_batch(matrix_sampler.sample_ginibre_matrix_batch(1, 5000, rng))
        vals = np.abs(eig[:, 0]) ** 2
        res = scipy_stats.kstest(vals, scipy_stats.expon.cdf)
        assert res.pvalue > 0.01

    def test_max_radius_ks_exact_cdf(self):
        n, m = 8, 3000
        rng = np.random.default_rng(5)
        eig = eigen.eigenvalues_batch(matrix_sampler.sample_ginibre_matrix_batch(n, m, rng))
        maxes = np.max(np.abs(eig) ** 2, axis=1)
        res = scipy_stats.kstest(maxes, validation.kostlan_max_cdf(n))
        assert res.pvalue > 0.01

    def test_isotropy_chi_square(self):
        n, m, bins = 20, 2000, 16
        rng = np.random.default_rng(6)
        eig = eigen.eigenvalues_batch(matrix_sampler.sample_ginibre_matrix_batch(n, m, rng))
        angles = np.angle(eig).ravel()
        counts, _ = np.histogram(angles, bins=bins, range=(-math.pi, math.pi))
        res = scipy_stats.chisquare(counts)
        assert res.pvalue > 0.01

    def test_radial_histogram_matches_intensity(self):
        samples = pipelines.sample_matrix_batch(50, seed=8, count=2500)
        [check] = validation.intensity_check(samples)
        assert check.passed, check

    def test_fault_injection_breaks_kostlan(self):
        n, m = 10, 4000
        rng = np.random.default_rng(9)
        mats = matrix_sampler.sample_ginibre_matrix_batch(n, m, rng, entry_scale=math.sqrt(2))
        eig = eigen.eigenvalues_batch(mats)
        sums = np.sum(np.abs(eig) ** 2, axis=1)
        k = n * (n + 1) / 2.0
        assert abs(sums.mean() - k) > 10 * math.sqrt(k / m)
