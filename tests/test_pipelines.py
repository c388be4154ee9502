import math

import numpy as np
import pytest
from scipy import stats as scipy_stats
from scipy.special import gammainc

from ginibre import hkpv, kernels, pipelines
from ginibre.hkpv import RejectionCapError
from ginibre.kernels import spectrum_profile
from ginibre.specfun import log_factorial, log_regularized_lower_gamma
from ginibre.streams import stream_rng


class TestDiskRoute:
    def test_points_inside_disk(self):
        sampler = pipelines.GinibreDiskSampler(2.0)
        for i in range(50):
            s = sampler.sample(stream_rng(1, i))
            assert np.all(s.radii() <= 2.0 + 1e-9)
            assert s.method == "projected_disk"

    @pytest.mark.parametrize("radius", [0.5, 1.0])
    def test_count_law_reduced(self, radius):
        sampler = pipelines.GinibreDiskSampler(radius)
        m = 20_000
        counts = np.array([len(s) for s in sampler.sample_batch(11, m)])
        prof = sampler.profile
        lam = prof.eigenvalues
        var_th = float((lam * (1 - lam)).sum())
        assert abs(counts.mean() - radius ** 2) <= 3 * math.sqrt(var_th / m)
        hole_th = math.exp(prof.log_hole_probability())
        sig = math.sqrt(hole_th * (1 - hole_th) / m)
        assert abs(np.mean(counts == 0) - hole_th) <= 3.5 * sig

    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0, 5.0])
    def test_basis_norms_are_per_index_gamma(self, radius, monkeypatch):
        # each draw's basis builds its recurrence table from the sampler's
        # profile, with no incomplete-gamma call per draw. The block start
        # holds ln c_0 and the steps c_n / c_{n-1}, c_n = (pi gamma(n+1, R^2))^{-1/2}
        # with ln gamma(n+1, R^2) = ln P(n+1, R^2) + ln n!, bit for bit
        bases = []
        sampler = pipelines.GinibreDiskSampler(radius)

        def no_gamma(*args, **kwargs):
            raise AssertionError("incomplete gamma evaluated for a draw's basis")

        monkeypatch.setattr(kernels, "log_regularized_lower_gamma", no_gamma)
        monkeypatch.setattr(kernels, "log_regularized_upper_gamma", no_gamma)
        monkeypatch.setattr(hkpv, "sample_projection_dpp",
                            lambda basis, rng, **kw: bases.append(basis) or np.empty(0))
        for i in range(200):
            sampler.sample(stream_rng(13, i))
        assert bases
        for basis in bases:
            n = np.arange(max(basis.indices) + 1)
            log_lam = log_regularized_lower_gamma(n + 1, radius * radius)
            log_coeffs = -0.5 * (math.log(math.pi) + log_lam + log_factorial(n))
            assert basis._steps.shape == (1, n.size)  # R^2 < 700: one block, no restart
            assert np.array_equal(basis._start_logs, log_coeffs[:1, None])
            assert np.array_equal(basis._steps[0, 1:], np.exp(np.diff(log_coeffs)))

    def test_seed_determinism(self):
        a = pipelines.sample_ginibre_on_disk(1.5, seed=77)
        b = pipelines.sample_ginibre_on_disk(1.5, seed=77)
        assert np.array_equal(a.points, b.points)
        assert a.seed == b.seed

    def test_zero_radius_degenerate(self):
        s = pipelines.sample_ginibre_on_disk(0.0, seed=3)
        assert len(s) == 0

    @pytest.mark.parametrize("radius", [-1.0, math.nan, math.inf, 1e200])
    def test_rejects_radius_without_finite_square(self, radius):
        with pytest.raises(ValueError, match="radius"):
            pipelines.GinibreDiskSampler(radius)

    def test_proposal_cap_holds_with_workers(self):
        sampler = pipelines.GinibreDiskSampler(3.0, max_proposals=1)
        with pytest.raises(RejectionCapError):
            sampler.sample_batch(7, 64, workers=2)

    def test_sup_cache_is_bounded(self, monkeypatch):
        reference = pipelines.GinibreDiskSampler(3.0)
        uncapped = reference.sample_batch(5, 50)
        assert len(reference._sup_cache) > 4
        monkeypatch.setattr(pipelines, "SUP_CACHE_SIZE", 4)
        sampler = pipelines.GinibreDiskSampler(3.0)
        capped = sampler.sample_batch(5, 50)
        assert len(sampler._sup_cache) <= 4
        for a, b in zip(uncapped, capped):
            assert np.array_equal(a.points, b.points)


class TestConditionedRoute:
    def test_exact_count_inside_target(self):
        sampler = pipelines.ConditionedSampler(9, 2.0)
        for i in range(20):
            s = sampler.sample(stream_rng(7, i))
            assert len(s) == 9
            assert np.all(s.radii() <= 2.0 + 1e-12)
            assert s.method == "conditioned"

    def test_homothety_is_output_scaling(self):
        # sampling at target a equals sampling at sqrt(N) then scaling,
        # bit for bit under a shared stream
        n, a = 5, 1.7
        raw = pipelines.ConditionedSampler(n, math.sqrt(n)).sample(stream_rng(9, 0))
        scaled = pipelines.ConditionedSampler(n, a).sample(stream_rng(9, 0))
        factor = a / math.sqrt(n)
        assert np.array_equal(scaled.points, raw.points * factor)

    def test_default_target_is_root_n(self):
        sampler = pipelines.ConditionedSampler(4)
        assert sampler.target_radius == pytest.approx(2.0)

    @pytest.mark.parametrize("target", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_target_outside_positive_reals(self, target):
        with pytest.raises(ValueError, match="target radius"):
            pipelines.ConditionedSampler(3, target)

    def test_proposal_cap_holds_with_workers(self):
        sampler = pipelines.ConditionedSampler(20, max_proposals=1)
        with pytest.raises(RejectionCapError):
            sampler.sample_batch(7, 64, workers=2)

    def test_radial_intensity_matches_kernel_diagonal(self):
        from ginibre import validation
        sampler = pipelines.ConditionedSampler(20)
        samples = sampler.sample_batch(21, 2000)
        [check] = validation.intensity_check(samples)
        assert check.passed, check.tolerance

    @staticmethod
    def kostlan_moduli(points):
        """z of the mean of sum |z|^2, and the KS p of max |z|^2 (one per
        draw), for N-point draws on B_sqrt(N). The |z|^2 are independent
        Gamma(k) variables truncated to [0, N], k = 1..N (Kostlan 1992), so
        E sum |z|^2 = sum_k k P(k+1, N) / P(k, N) (196.627 at N = 20) and
        max |z|^2 has CDF prod_k P(k, x) / P(k, N)."""
        m, n = points.shape
        k = np.arange(1, n + 1)
        p_n = gammainc(k, n)
        mean = float(np.sum(k * gammainc(k + 1, n) / p_n))
        sums = np.sum(np.abs(points) ** 2, axis=1)
        z = (sums.mean() - mean) / (sums.std(ddof=1) / math.sqrt(m))
        top = np.max(np.abs(points) ** 2, axis=1)
        cdf = lambda x: np.prod(gammainc(k[:, None], np.atleast_1d(x)) / p_n[:, None], axis=0)
        return z, scipy_stats.kstest(top, cdf).pvalue

    def test_kostlan_moduli_n20(self):
        n, m = 20, 1000
        points = np.stack([s.points for s in pipelines.ConditionedSampler(n).sample_batch(1, m)])
        z, pvalue = self.kostlan_moduli(points)
        assert abs(z) <= 4.0 and pvalue > 0.01, (z, pvalue)
        # negative control: iid uniform points on B_sqrt(N) have E sum |z|^2
        # = N^2 / 2 = 200, about 3.7 sd from 196.627 at this m; the KS test
        # on the largest modulus is what rejects them
        rng = np.random.default_rng(1)
        uniform = np.sqrt(n * rng.random((m, n))) * np.exp(2j * math.pi * rng.random((m, n)))
        z, pvalue = self.kostlan_moduli(uniform)
        assert abs(z) > 4.0 or pvalue <= 0.01, (z, pvalue)


class InlinePool:
    """ProcessPoolExecutor stand-in that runs map in this process."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class TestBatchDriver:
    def test_split_is_contiguous_in_order(self, monkeypatch):
        pools, spans = [], []
        monkeypatch.setattr(pipelines, "ProcessPoolExecutor",
                            lambda max_workers: pools.append(max_workers) or InlinePool())

        def span(size, start):
            spans.append((start, size))
            return list(range(start, start + size))

        draws = pipelines._batch(span, 65, 7, workers=3, fan_out_min=64)
        assert pools == [3]
        assert spans == [(7, 22), (29, 22), (51, 21)]
        assert draws == list(range(7, 72))

    def test_serial_below_threshold_or_one_worker(self, monkeypatch):
        monkeypatch.setattr(pipelines, "ProcessPoolExecutor", None)
        span = lambda size, start: list(range(start, start + size))  # noqa: E731
        assert pipelines._batch(span, 63, 7, workers=3, fan_out_min=64) == list(range(7, 70))
        assert pipelines._batch(span, 65, 7, workers=1, fan_out_min=64) == list(range(7, 72))


class TestAcceptanceProbability:
    def test_closed_forms(self):
        assert pipelines.acceptance_probability_all_in_disk(1) == pytest.approx(
            1 - math.exp(-1), rel=1e-12)
        expected2 = (1 - math.exp(-2)) * (1 - 3 * math.exp(-2))
        assert pipelines.acceptance_probability_all_in_disk(2) == pytest.approx(
            expected2, rel=1e-12)

    def test_decreasing_to_zero(self):
        vals = [pipelines.acceptance_probability_all_in_disk(n) for n in range(1, 201)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.01


class TestRejectionConditioning:
    def test_retry_count_geometric(self):
        n, m = 3, 1500
        rng = np.random.default_rng(5)
        retries = np.array([
            pipelines.conditioned_by_rejection(n, rng).notes["retries"]
            for _ in range(m)
        ])
        p = pipelines.acceptance_probability_all_in_disk(n)
        mean_th = 1.0 / p
        sigma = math.sqrt((1 - p) / (p * p) / m)
        assert abs(retries.mean() - mean_th) <= 3 * sigma

    def test_rank_one_matches_hkpv_route(self):
        rng = np.random.default_rng(6)
        m = 5000
        ref = np.array([
            abs(pipelines.conditioned_by_rejection(1, rng).points[0]) for _ in range(m)
        ])
        sampler = pipelines.ConditionedSampler(1)
        hk = np.array([abs(s.points[0]) for s in sampler.sample_batch(8, m)])
        res = scipy_stats.ks_2samp(ref, hk)
        assert res.pvalue > 0.01

    def test_rank_cap(self):
        with pytest.raises(ValueError):
            pipelines.conditioned_by_rejection(40, np.random.default_rng(0))


class TestMatrixBatch:
    def test_chunk_and_worker_invariance(self, monkeypatch):
        base = pipelines.sample_matrix_batch(6, seed=13, count=30)
        monkeypatch.setattr(pipelines, "MATRIX_CHUNK", 7)
        rechunked = pipelines.sample_matrix_batch(6, seed=13, count=30)
        workered = pipelines.sample_matrix_batch(6, seed=13, count=30, workers=2)
        for x, y, z in zip(base, rechunked, workered, strict=True):
            assert np.array_equal(x.points, y.points)
            assert np.array_equal(x.points, z.points)

    def test_chunk_and_worker_invariance_threaded_blas_order(self, monkeypatch):
        # From N ~ 74 up, LAPACK's reduction runs threaded BLAS: bytes may
        # depend on the BLAS thread count, but not on chunking or workers.
        base = pipelines.sample_matrix_batch(100, seed=15, count=64)
        monkeypatch.setattr(pipelines, "MATRIX_CHUNK", 16)
        rechunked = pipelines.sample_matrix_batch(100, seed=15, count=64)
        workered = pipelines.sample_matrix_batch(100, seed=15, count=64, workers=2)
        for x, y, z in zip(base, rechunked, workered, strict=True):
            assert np.array_equal(x.points, y.points)
            assert np.array_equal(x.points, z.points)

    def test_fan_out_only_at_threshold(self, monkeypatch):
        # 2 * MATRIX_CHUNK draws and more are split over the workers; fewer
        # run in this process
        monkeypatch.setattr(pipelines, "MATRIX_CHUNK", 7)
        pools = []
        monkeypatch.setattr(pipelines, "ProcessPoolExecutor",
                            lambda max_workers: pools.append(max_workers) or InlinePool())
        pipelines.sample_matrix_batch(3, seed=1, count=13, workers=2)
        assert pools == []
        pipelines.sample_matrix_batch(3, seed=1, count=14, workers=2)
        assert pools == [2]

    def test_draw_i_is_stream_offset_plus_i(self):
        # the batch holds one full chunk and the start of the next
        offset, count = 5, pipelines.MATRIX_CHUNK + 3
        batch = pipelines.sample_matrix_batch(2, seed=3, count=count, offset=offset)
        assert len(batch) == count
        for i, sample in enumerate(batch):
            alone = pipelines.sample_matrix_batch(2, seed=3, count=1, offset=offset + i)[0]
            assert sample.seed == alone.seed
            assert np.array_equal(sample.points, alone.points)

    def test_outside_count_matches_delta(self):
        from ginibre.validation import outside_disk_check
        samples = pipelines.sample_matrix_batch(50, seed=14, count=2500)
        [check] = outside_disk_check(np.stack([s.points for s in samples]))
        assert check.passed, check.tolerance
