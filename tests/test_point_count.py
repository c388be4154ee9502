import math

import numpy as np
import pytest

from ginibre import point_count
from ginibre.kernels import SpectrumProfile, spectrum_profile


def profile_from_eigenvalues(lams, radius=1.0):
    lams = np.asarray(lams, dtype=float)
    with np.errstate(divide="ignore"):
        log_lam = np.log(lams)
        log_q = np.log1p(-lams)
    return SpectrumProfile(radius=radius, eigenvalues=lams,
                           log_eigenvalues=log_lam, log_one_minus=log_q)


class TestCountCdf:
    def test_single_eigenvalue(self):
        prof = profile_from_eigenvalues([0.5])
        assert point_count.count_cdf(prof, 0) == pytest.approx(0.5, rel=1e-14)

    def test_telescoping(self):
        prof = spectrum_profile(2.0)
        table = point_count.count_table(prof)
        for t in (1, 3, 5, 8):
            increment = point_count.count_cdf(prof, t, table) - point_count.count_cdf(
                prof, t - 1, table)
            lam = prof.eigenvalues
            direct = lam[t] * math.exp(float(np.sum(prof.log_one_minus[t + 1:])))
            assert increment == pytest.approx(direct, rel=1e-10, abs=1e-15)

    def test_limit_excludes_hole(self):
        prof = spectrum_profile(1.0)
        table = point_count.count_table(prof)
        top = point_count.count_cdf(prof, prof.count + 50, table)
        assert top == pytest.approx(1.0 - table.hole_prob, abs=1e-12)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            point_count.count_cdf(spectrum_profile(1.0), -1)


class TestSampleTopIndex:
    def test_certain_single_index(self):
        prof = profile_from_eigenvalues([1.0])
        rng = np.random.default_rng(0)
        assert all(point_count.sample_top_index(prof, rng) == 0 for _ in range(50))

    def test_distribution_matches_cdf(self):
        prof = spectrum_profile(3.0)
        table = point_count.count_table(prof)
        rng = np.random.default_rng(42)
        m = 100_000
        draws = np.empty(m, dtype=int)
        for i in range(m):
            v = point_count.sample_top_index(prof, rng, table)
            draws[i] = -1 if v is None else v
        # hole frequency
        p_hole = table.hole_prob
        freq = np.mean(draws == -1)
        sigma = math.sqrt(p_hole * (1 - p_hole) / m)
        assert abs(freq - p_hole) <= max(3 * sigma, 1e-4)
        # per-index frequencies within 3 sigma
        for n in range(prof.count):
            p = table.pmf[n]
            if p < 1e-6:
                continue
            fr = np.mean(draws == n)
            sig = math.sqrt(p * (1 - p) / m)
            assert abs(fr - p) <= 4 * sig

    def test_seeded_reproducibility(self):
        prof = spectrum_profile(2.0)
        a = [point_count.sample_top_index(prof, np.random.default_rng(9)) for _ in range(1)]
        b = [point_count.sample_top_index(prof, np.random.default_rng(9)) for _ in range(1)]
        assert a == b


class TestSampleIndicators:
    def test_m_zero(self):
        prof = spectrum_profile(1.0)
        draw = point_count.sample_indicators(prof, 0, np.random.default_rng(1))
        assert draw.selected == (0,)
        assert draw.top_index == 0

    def test_all_zero_eigenvalues(self):
        prof = profile_from_eigenvalues([0.0, 0.0, 0.0, 0.0])
        draw = point_count.sample_indicators(prof, 3, np.random.default_rng(2))
        assert draw.selected == (3,)

    def test_selected_mean(self):
        prof = spectrum_profile(2.0)
        m = prof.count - 1
        rng = np.random.default_rng(3)
        draws = 100_000
        sizes = np.empty(draws)
        for i in range(draws):
            sizes[i] = len(point_count.sample_indicators(prof, m, rng).selected)
        lam = prof.eigenvalues[:m]
        expect = 1.0 + float(lam.sum())
        sigma = math.sqrt(float((lam * (1 - lam)).sum()) / draws)
        assert abs(sizes.mean() - expect) <= 3 * sigma

    def test_out_of_range_rejected(self):
        prof = spectrum_profile(1.0)
        with pytest.raises(ValueError):
            point_count.sample_indicators(prof, prof.count + 3, np.random.default_rng(0))


class TestUnconditionalLaw:
    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
    def test_count_moments_and_hole(self, radius):
        prof = spectrum_profile(radius)
        table = point_count.count_table(prof)
        rng = np.random.default_rng(int(10 * radius))
        m = 100_000
        counts = np.empty(m)
        for i in range(m):
            top = point_count.sample_top_index(prof, rng, table)
            if top is None:
                counts[i] = 0
            else:
                counts[i] = len(point_count.sample_indicators(prof, top, rng).selected)
        lam = prof.eigenvalues
        mean_th = radius * radius
        var_th = float((lam * (1 - lam)).sum())
        assert abs(counts.mean() - mean_th) <= 3 * math.sqrt(var_th / m)
        mu4 = float((lam * (1 - lam) * (1 - 6 * lam * (1 - lam))).sum()) + 3 * var_th ** 2
        sig_var = math.sqrt(mu4 / m)
        assert abs(counts.var(ddof=1) - var_th) <= 3 * sig_var
        hole_th = table.hole_prob
        events = int(np.sum(counts == 0))
        if hole_th * m >= 50:
            sig_hole = math.sqrt(hole_th * (1 - hole_th) / m)
            assert abs(events / m - hole_th) <= 3 * sig_hole
        else:
            from scipy import stats as scipy_stats
            pvalue = 2 * min(scipy_stats.poisson.cdf(events, hole_th * m),
                             scipy_stats.poisson.sf(events - 1, hole_th * m))
            assert pvalue > 1e-3

    def test_leftover_mass_recorded(self):
        # the table runs to 1e-40, so the law of T leaves only rounding to fold in
        for radius in (0.5, 1.0, 2.0, 5.0, 12.0):
            table = point_count.count_table(spectrum_profile(radius))
            assert 0.0 <= table.leftover_mass <= 1e-15
