import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

from ginibre import pipelines
from ginibre.hkpv import RejectionCapError
from ginibre.kernels import spectrum_profile
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

    def test_seed_determinism(self):
        a = pipelines.sample_ginibre_on_disk(1.5, seed=77)
        b = pipelines.sample_ginibre_on_disk(1.5, seed=77)
        assert np.array_equal(a.points, b.points)
        assert a.seed == b.seed

    def test_zero_radius_degenerate(self):
        s = pipelines.sample_ginibre_on_disk(0.0, seed=3)
        assert len(s) == 0

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

    def test_proposal_cap_holds_with_workers(self):
        sampler = pipelines.ConditionedSampler(20, max_proposals=1)
        with pytest.raises(RejectionCapError):
            sampler.sample_batch(7, 64, workers=2)

    def test_radial_intensity_matches_kernel_diagonal(self):
        from ginibre import validation
        sampler = pipelines.ConditionedSampler(20)
        samples = sampler.sample_batch(21, 2000)
        report = validation.ValidationReport(seed=21)
        validation.intensity_check(samples, report)
        assert report.passed, report.checks[-1].tolerance


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
    def test_chunk_and_worker_invariance(self):
        base = pipelines.sample_matrix_batch(6, seed=13, count=30, chunk=7)
        rechunked = pipelines.sample_matrix_batch(6, seed=13, count=30, chunk=30)
        workered = pipelines.sample_matrix_batch(6, seed=13, count=30, chunk=7, workers=2)
        for x, y, z in zip(base, rechunked, workered):
            assert np.array_equal(x.points, y.points)
            assert np.array_equal(x.points, z.points)

    def test_outside_count_matches_delta(self):
        from ginibre.validation import ValidationReport, outside_disk_check
        samples = pipelines.sample_matrix_batch(50, seed=14, count=2500)
        report = ValidationReport(seed=14)
        outside_disk_check(samples, report)
        assert report.passed, report.checks[-1].tolerance
