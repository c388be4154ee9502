import cmath
import math

import mpmath
import numpy as np
import pytest

from ginibre import kernels
from ginibre.specfun import (
    log_factorial,
    log_regularized_lower_gamma,
    log_regularized_upper_gamma,
)

from oracles import janossy_oracle, log_joint_density

RNG = np.random.default_rng(2024)


def disk_basis(radius, indices):
    return kernels.BasisSubset(kernels.spectrum_profile(radius, rank=max(indices) + 1), indices)


def plane_basis(n_rank):
    # the R = inf basis of truncated_kernel
    prof = kernels.SpectrumProfile(
        radius=math.inf, eigenvalues=np.ones(n_rank),
        log_eigenvalues=np.zeros(n_rank), log_one_minus=np.full(n_rank, -np.inf))
    return kernels.BasisSubset(prof, tuple(range(n_rank)))


def log_space_feature_vector(basis, z):
    """Reference: each entry exp(n ln|z| - |z|^2/2 - (ln pi + ln gamma(n+1, R^2)) / 2)
    times e^{i n arg z}, as feature_vector computed it before the recurrence."""
    zs = np.atleast_1d(np.asarray(z, dtype=complex))
    absz = np.abs(zs)
    inside = absz <= basis.radius * (1.0 + 1e-12)
    idx = np.array(basis.indices)[:, None]
    norm_logs = basis.profile.log_eigenvalues[idx[:, 0]] + log_factorial(idx[:, 0])
    logmag = np.where(
        absz[None, :] > 0.0,
        idx * np.log(np.where(absz > 0.0, absz, 1.0))[None, :],
        np.where(idx == 0, 0.0, -np.inf),
    )
    logmag = logmag - 0.5 * absz[None, :] ** 2
    logmag = logmag - 0.5 * (math.log(math.pi) + norm_logs)[:, None]
    out = np.exp(logmag) * np.exp(1j * idx * np.angle(zs)[None, :])
    out = np.where(inside[None, :], out, 0.0)
    return out[:, 0] if np.ndim(z) == 0 else out


def random_disk_points(rng, count, radius):
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
        if abs(z) <= radius:
            pts.append(z)
    return pts


class TestGinibreKernel:
    def test_origin(self):
        assert kernels.ginibre_kernel(0, 0) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_diagonal_constant(self):
        for z in (0.3 + 0.1j, -2.0 + 1.5j, 5.0j):
            assert kernels.ginibre_kernel(z, z) == pytest.approx(1.0 / math.pi, rel=1e-13)

    def test_off_diagonal_value(self):
        val = kernels.ginibre_kernel(1.0, 1.0j)
        oracle = cmath.exp(1.0 * (-1.0j) - 1.0) / math.pi
        assert val == pytest.approx(oracle, rel=1e-13)
        assert abs(val) == pytest.approx(0.117099663, rel=1e-8)

    def test_hermitian(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            z1 = complex(rng.normal(), rng.normal())
            z2 = complex(rng.normal(), rng.normal())
            assert kernels.ginibre_kernel(z1, z2) == pytest.approx(
                kernels.ginibre_kernel(z2, z1).conjugate(), rel=1e-13)

    def test_translation_invariant_modulus(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            z1, z2, a = (complex(rng.normal(), rng.normal()) for _ in range(3))
            assert abs(kernels.ginibre_kernel(z1 - a, z2 - a)) == pytest.approx(
                abs(kernels.ginibre_kernel(z1, z2)), rel=1e-12)

    def test_rotation_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            z1, z2 = (complex(rng.normal(), rng.normal()) for _ in range(2))
            theta = rng.uniform(0, 2 * math.pi)
            rot = cmath.exp(1j * theta)
            assert kernels.ginibre_kernel(z1 * rot, z2 * rot) == pytest.approx(
                kernels.ginibre_kernel(z1, z2), rel=1e-12)

    def test_array_form_matches_scalar_calls(self):
        rng = np.random.default_rng(10)
        z1, z2 = (rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))) * 2.0
        grid = kernels.ginibre_kernel(z1[:, None], z2[None, :])
        scalar = np.array([[kernels.ginibre_kernel(a, b) for b in z2] for a in z1])
        np.testing.assert_allclose(grid, scalar, rtol=1e-14, atol=0.0)


class TestTruncatedKernel:
    def test_rank_one_origin(self):
        assert kernels.truncated_kernel(1, 0, 0) == pytest.approx(1 / math.pi, rel=1e-14)

    def test_two_term_hand_sum(self):
        assert kernels.truncated_kernel(2, 1.0, 1.0) == pytest.approx(
            2.0 * math.exp(-1.0) / math.pi, rel=1e-13)

    def test_converges_to_full_kernel(self):
        # tail bound: sum_{n>=64} 4^n/n! < 1e-38 at |z1 z2| <= 4
        rng = np.random.default_rng(4)
        for _ in range(20):
            z1 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            z2 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert kernels.truncated_kernel(64, z1, z2) == pytest.approx(
                kernels.ginibre_kernel(z1, z2), abs=1e-10)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(5)
        for n_pts in (2, 4, 6):
            pts = [complex(rng.normal(), rng.normal()) for _ in range(n_pts)]
            gram = np.array([[kernels.truncated_kernel(8, a, b) for b in pts] for a in pts])
            assert np.linalg.det(gram).real >= -1e-12

    @pytest.mark.parametrize("n_rank", [1, 8, 64, 600])
    def test_diagonal_is_radial_intensity(self, n_rank):
        r = np.linspace(0.0, math.sqrt(n_rank) + 3.0, 257)
        z = r * np.exp(1j * np.linspace(0.0, 2 * math.pi, r.size))
        diag = kernels.truncated_kernel(n_rank, z, z)
        np.testing.assert_allclose(diag.real, kernels.radial_intensity(n_rank, np.abs(z)),
                                   rtol=1e-11, atol=0.0)


class TestProjectedEigenfunction:
    def test_origin_closed_form(self):
        expected = 1.0 / math.sqrt(math.pi * (1.0 - 1.0 / math.e))
        basis = disk_basis(1.0, (0,))
        assert kernels.feature_vector(basis, 0)[0] == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("radius", [1.0, 2.0, 3.0])
    def test_unit_norm(self, radius, disk_quad):
        z, w = disk_quad(radius)
        vals = kernels.feature_vector(disk_basis(radius, (0, 1, 4, 10)), z)
        norms = np.sum(w * np.abs(vals) ** 2, axis=1)
        assert norms == pytest.approx(np.ones(4), abs=1e-6)

    def test_orthogonality(self, disk_quad):
        z, w = disk_quad(2.0)
        f3, f5 = kernels.feature_vector(disk_basis(2.0, (3, 5)), z)
        inner = np.sum(w * f3 * f5.conj())
        assert abs(inner) < 1e-6

    def test_large_index_log_magnitude(self):
        # gamma(201, 400) ~ 200! ~ 1e375 overflows doubles; the normalized value does not
        value = kernels.feature_vector(disk_basis(20.0, (200,)), 14.0 + 0j)[0]
        ref = (200 * mpmath.log(14) - 0.5 * 14 ** 2
               - 0.5 * (mpmath.log(mpmath.pi)
                        + mpmath.log(mpmath.gammainc(201, 0, 400))))
        assert value != 0.0 and math.isfinite(abs(value))
        assert math.log(abs(value)) == pytest.approx(float(ref), abs=1e-8)


class TestRecurrence:
    """feature_vector (one cumprod, restarted every 64 rows from R^2 >= 700)
    against the log-space formula, on full profiles and on thinned bases."""

    @staticmethod
    def bases(radius):
        if math.isinf(radius):
            return [plane_basis(300)]
        prof = kernels.spectrum_profile(radius)
        rng = np.random.default_rng(int(10 * radius))
        thinned = tuple(int(i) for i in np.flatnonzero(rng.random(prof.count) < 0.5))
        return [kernels.BasisSubset(prof, tuple(range(prof.count))),
                kernels.BasisSubset(prof, thinned)]

    @staticmethod
    def points(radius):
        r = 20.0 if math.isinf(radius) else radius
        rng = np.random.default_rng(7)
        inner = r * np.sqrt(rng.random(200)) * np.exp(2j * math.pi * rng.random(200))
        edge = r * np.exp(2j * math.pi * np.arange(8) / 8)
        return np.concatenate([[0.0, 1e-300, -r, 1j * r, 1.01 * r, -2.0j * r], edge, inner])

    @pytest.mark.parametrize("radius", [0.5, 5.0, 10.0, 30.0, 45.0, math.inf])
    def test_matches_log_space_formula(self, radius):
        z = self.points(radius)
        for basis in self.bases(radius):
            new = kernels.feature_vector(basis, z)
            ref = log_space_feature_vector(basis, z)
            assert new.shape == ref.shape == (basis.size, z.size)
            # both sides round in proportion to the row count and, in log
            # space, to |z|^2 / 2 and n |ln z|: 1.1e-13 at R = 10, 2.7e-12 at R = 45
            colmax = np.abs(ref).max(axis=0)
            tol = (1e-12 if basis.radius ** 2 < 700 else 1e-11) * colmax
            assert np.all(np.abs(new - ref) <= tol)

    @pytest.mark.parametrize("radius", [0.5, 10.0, 45.0, math.inf])
    def test_origin_and_outside(self, radius):
        z = self.points(radius)
        for basis in self.bases(radius):
            v = kernels.feature_vector(basis, z)
            origin = v[:, 0]
            assert np.all(origin[np.array(basis.indices) > 0] == 0.0)
            if basis.indices[0] == 0:
                assert origin[0] == pytest.approx(log_space_feature_vector(basis, 0.0)[0],
                                                  rel=1e-15)
            if not math.isinf(radius):
                assert np.all(v[:, 4:6] == 0.0)

    @pytest.mark.parametrize("radius", [45.0, math.inf])
    def test_rows_past_restarts(self, radius):
        # rows on both sides of the restarts at 64, 128, ..., at the radius where
        # they peak, so the values are far from underflow
        basis = self.bases(radius)[0]
        rows = [n for n in (63, 64, 65, 127, 128, 129, 255, 256, 1023, 1024, 1983, 1984)
                if n <= max(basis.indices) and n < basis.radius ** 2]
        for n in rows:
            z = math.sqrt(n) * np.exp(1j * np.array([0.3, 2.0, -1.2]))
            new = kernels.feature_vector(basis, z)[n]
            ref = log_space_feature_vector(basis, z)[n]
            np.testing.assert_allclose(new, ref, rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize("radius", [5.0, 45.0, math.inf])
    def test_scalar_and_array_shapes(self, radius):
        z = self.points(radius)[:20]
        for basis in self.bases(radius):
            grid = kernels.feature_vector(basis, z)
            assert grid.shape == (basis.size, z.size)
            for k, point in enumerate(z):
                one = kernels.feature_vector(basis, complex(point))
                assert one.shape == (basis.size,)
                assert one.tobytes() == grid[:, k].tobytes()


class TestConditionedKernel:
    def test_rank_one_origin(self):
        expected = 1.0 / (math.pi * (1.0 - 1.0 / math.e))
        assert kernels.conditioned_kernel(1, 0, 0) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("n_rank", [2, 4])
    def test_reproducing_property(self, n_rank, disk_quad):
        radius = math.sqrt(n_rank)
        z, w = disk_quad(radius, n_r=72, n_theta=48)
        rng = np.random.default_rng(6)
        pts = random_disk_points(rng, 2, radius * 0.8)
        z1, z2 = pts
        left = kernels.conditioned_kernel(n_rank, z1, z)
        right = kernels.conditioned_kernel(n_rank, z, z2)
        integral = np.sum(w * left * right)
        assert integral == pytest.approx(
            kernels.conditioned_kernel(n_rank, z1, z2), abs=1e-5)

    def test_sup_distance_decreases(self):
        d10 = kernels.conditioned_kernel_max_deviation(10)
        d50 = kernels.conditioned_kernel_max_deviation(50)
        assert d50 < d10

    @pytest.mark.parametrize("n_rank, expected, tol", [
        # mpmath values of the grid maxima. The deviation is a difference of
        # O(1/pi) sums, which doubles resolve to ~1e-16 absolute.
        (10, 6.800363464373668e-04, {"rel": 1e-12}),
        (25, 5.622890312480612e-09, {"abs": 1e-15}),
    ])
    def test_max_deviation_values(self, n_rank, expected, tol):
        assert kernels.conditioned_kernel_max_deviation(n_rank) == pytest.approx(
            expected, **tol)

    @pytest.mark.parametrize("n_rank, radius", [(200, math.sqrt(200)), (400, 5.0)])
    def test_max_deviation_matches_pairwise_at_large_rank(self, n_rank, radius):
        grid = 40
        dev = kernels.conditioned_kernel_max_deviation(n_rank, radius, grid=grid)
        s = np.sqrt(np.linspace(0.0, radius * radius, grid))[:, None]
        z1 = s * np.exp(1j * np.linspace(0.0, math.pi, grid))
        pairwise = np.abs(kernels.ginibre_kernel(z1, s)
                          - kernels.conditioned_kernel(n_rank, z1, s)).max()
        assert math.isfinite(dev)
        assert dev == pytest.approx(pairwise, rel=1e-9, abs=1e-13)

    def test_zero_outside_disk(self):
        assert kernels.conditioned_kernel(4, 3.0, 0.1) == 0.0

    def test_array_form_matches_pointwise(self):
        z = np.array([0.0, 0.3 + 0.4j, -1.1j, 1.9, 2.5 + 0.1j])  # last one outside B_2
        grid = kernels.conditioned_kernel(4, z[:, None], z[None, :])
        pointwise = np.array([[kernels.conditioned_kernel(4, a, b) for b in z] for a in z])
        assert grid.shape == (5, 5)
        assert grid.tobytes() == pointwise.tobytes()
        assert np.all(grid[-1] == 0.0) and np.all(grid[:, -1] == 0.0)

    def test_array_form_matches_pointwise_with_restarts(self):
        # R^2 = 900: the recurrence restarts every 64 rows
        z = np.array([0.0, 3.0 + 4.0j, -21.0j, 29.9, 30.5 + 0.1j])  # last one outside
        grid = kernels.conditioned_kernel(900, z[:, None], z[None, :])
        pointwise = np.array([[kernels.conditioned_kernel(900, a, b) for b in z] for a in z])
        assert grid.tobytes() == pointwise.tobytes()
        assert np.all(grid[-1] == 0.0) and np.all(grid[:, -1] == 0.0)
        ref = log_space_feature_vector(kernels.conditioned_basis(900), z)
        np.testing.assert_allclose(np.diag(grid).real, np.sum(np.abs(ref) ** 2, axis=0),
                                   rtol=1e-11)


class TestRadialIntensity:
    def test_origin(self):
        for n in (1, 7, 100):
            assert kernels.radial_intensity(n, 0.0) == pytest.approx(1 / math.pi, rel=1e-14)

    def test_brute_force_sum(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            r = rng.uniform(0.0, 10.0)
            brute = math.exp(-r * r) * math.fsum(
                r ** (2 * k) / math.factorial(k) for k in range(n)) / math.pi
            assert kernels.radial_intensity(n, r) == pytest.approx(brute, rel=1e-11, abs=1e-300)

    @pytest.mark.parametrize("n_rank", [3, 25, 100])
    def test_integrates_to_rank(self, n_rank):
        # 2 pi int rho(r) r dr = N
        x, wx = np.polynomial.legendre.leggauss(256)
        rmax = math.sqrt(n_rank) + 9.0
        r = 0.5 * (x + 1) * rmax
        w = 0.5 * rmax * wx
        total = float(np.sum(
            w * 2 * math.pi * r * np.array([kernels.radial_intensity(n_rank, rr) for rr in r])))
        assert total == pytest.approx(n_rank, abs=1e-8 * n_rank)

    def test_array_matches_scalar_calls(self):
        r = np.linspace(0.0, 320.0, 512)
        got = kernels.radial_intensity(100_000, r)
        scalar = np.array([kernels.radial_intensity(100_000, float(x)) for x in r])
        np.testing.assert_allclose(got, scalar, rtol=1e-10, atol=0.0)

    def test_bounded_by_inv_pi(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 200))
            r = rng.uniform(0.0, 2 * math.sqrt(n))
            assert kernels.radial_intensity(n, r) <= 1 / math.pi + 1e-15


class TestIntensityBounds:
    def test_bounds_respected_randomly(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            n = int(rng.integers(1, 201))
            r = rng.uniform(0.0, math.sqrt(n) + 3.0)
            rho = kernels.radial_intensity(n, r)
            b = kernels.intensity_bounds(n, r)
            if b.lower is not None:
                assert rho >= b.lower - 1e-12
            if b.upper is not None:
                assert rho <= b.upper + 1e-12

    def test_origin_slack_zero(self):
        b = kernels.intensity_bounds(10, 0.0)
        assert b.lower == pytest.approx(1 / math.pi, rel=1e-14)
        assert 1 / math.pi - kernels.radial_intensity(10, 0.0) <= 1e-15

    def test_asymptotic_falloff_shape(self):
        # finite-N bracket approaches e^{-2u^2} / (2 sqrt2 u pi^{3/2}) at N=600
        n = 600
        root = math.sqrt(n)
        for u in (0.2, 0.5, 1.0):
            g = math.exp(-2 * u * u) / (2 * math.sqrt(2) * u * math.pi ** 1.5)
            slack_in = 1 / math.pi - kernels.intensity_bounds(n, root - u).lower
            up_out = kernels.intensity_bounds(n, root + u).upper
            assert slack_in == pytest.approx(g, rel=0.10)
            assert up_out == pytest.approx(g, rel=0.10)

    def test_regime_flags(self):
        n = 25
        assert kernels.intensity_bounds(n, 1.0).upper is None
        assert kernels.intensity_bounds(n, 10.0).lower is None
        both = kernels.intensity_bounds(n, math.sqrt(n + 0.5))
        assert both.lower is not None and both.upper is not None


class TestSpectrumProfile:
    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 12.0])
    def test_trace_identity(self, radius):
        # no mass is cut off the table, so its sum is R^2 to a few ulps
        prof = kernels.spectrum_profile(radius)
        assert prof.eigenvalues.sum() == pytest.approx(radius * radius, rel=5e-15, abs=0)

    def test_eigenvalues_in_unit_interval_and_decreasing(self):
        prof = kernels.spectrum_profile(3.0)
        lam = prof.eigenvalues
        assert np.all(lam >= 0.0) and np.all(lam <= 1.0)
        assert np.all(np.diff(lam) <= 1e-15)

    def test_truncation_rule(self):
        prof = kernels.spectrum_profile(2.0)
        assert prof.count > 4.0  # beyond R^2
        assert prof.eigenvalues[-1] >= 1e-40

    def test_hole_probability_r_half(self):
        prof = kernels.spectrum_profile(0.5)
        # frozen from the scipy gammainc product (independent implementation)
        assert math.exp(prof.log_hole_probability()) == pytest.approx(
            0.7564184437373282, rel=1e-10)

    def test_hole_probability_beyond_underflow(self):
        # prod (1 - lambda_n) underflows doubles past R ~ 26.6; its log does not
        prof = kernels.spectrum_profile(30.0)
        assert prof.trace == pytest.approx(900.0, abs=1e-8)
        with mpmath.workdps(30):
            ref = mpmath.fsum(
                mpmath.log(mpmath.gammainc(n + 1, 900, mpmath.inf, regularized=True))
                for n in range(1300))
        assert math.isfinite(prof.log_hole_probability())
        assert prof.log_hole_probability() == pytest.approx(float(ref), rel=1e-10)

    @pytest.mark.parametrize("radius", [0.0, 0.5, 3.0, 10.0])
    @pytest.mark.parametrize("epsilon", [1e-3, 1e-12, 1e-60])
    def test_matches_per_index_rule(self, radius, epsilon):
        # the table runs to the first lambda_n < 1e-40 with n > R^2; a coarser
        # cut at the first lambda_n < epsilon with n > R^2 is a prefix of it,
        # and the entries past that cut keep their sum of log(1 - lambda_n)
        r2 = radius * radius
        lam = [math.exp(log_regularized_lower_gamma(n + 1, r2)) for n in range(400)]
        count = next(n for n in range(400) if lam[n] < 1e-40 and n > r2)
        cut = min(count, next(n for n in range(400) if lam[n] < epsilon and n > r2))
        prof = kernels.spectrum_profile(radius)
        assert prof.count == count
        np.testing.assert_allclose(prof.eigenvalues, lam[:count], rtol=1e-12)
        assert math.fsum(prof.log_one_minus[cut:]) == pytest.approx(
            math.fsum(math.log1p(-v) for v in lam[cut:count]), rel=1e-12, abs=1e-300)
        assert prof.trace == pytest.approx(math.fsum(lam[:count]), rel=1e-14)

    @pytest.mark.parametrize("radius", [0.5, 2.0, math.sqrt(50)])
    @pytest.mark.parametrize("rank", [1, 12, 50])
    def test_rank_table(self, radius, rank):
        # the rank-N kernel on B_R: exactly n < N, no tail
        prof = kernels.spectrum_profile(radius, rank=rank)
        shapes = np.arange(1, rank + 1)
        assert prof.count == rank
        assert np.array_equal(prof.log_eigenvalues,
                              log_regularized_lower_gamma(shapes, radius * radius))
        assert np.array_equal(prof.log_one_minus,
                              log_regularized_upper_gamma(shapes, radius * radius))
        assert prof.trace == float(prof.eigenvalues.sum())

    def test_degenerate_zero_radius(self):
        prof = kernels.spectrum_profile(0.0)
        assert math.exp(prof.log_hole_probability()) == 1.0

    def test_rejects_bad_args(self):
        for radius in (-1.0, math.nan, math.inf, 1e200):  # 1e200: R^2 overflows
            with pytest.raises(ValueError):
                kernels.spectrum_profile(radius)
        with pytest.raises(ValueError):
            kernels.spectrum_profile(1.0, rank=0)


class TestBasisSubset:
    def test_members_orthonormal(self, disk_quad):
        basis = disk_basis(1.5, (0, 2, 5))
        z, w = disk_quad(1.5)
        vecs = kernels.feature_vector(basis, z)  # (3, m)
        gram = (vecs * w) @ vecs.conj().T
        assert np.allclose(gram, np.eye(3), atol=1e-6)

    def test_rejects_indices_outside_profile(self):
        prof = kernels.spectrum_profile(1.5, rank=4)
        for indices in ((0, 4), (-1, 2)):
            with pytest.raises(ValueError):
                kernels.BasisSubset(prof, indices)
        with pytest.raises(ValueError):
            kernels.BasisSubset(kernels.spectrum_profile(0.0, rank=1), (0,))


class TestJanossyOracle:
    def test_hole_case(self):
        v = janossy_oracle(4, 1.0, [])
        prof = kernels.spectrum_profile(1.0)
        expected = math.exp(float(np.sum(prof.log_one_minus[:4])))
        assert v == pytest.approx(expected, rel=1e-12)

    def test_full_rank_closed_form(self):
        pts = [0.3 + 0.2j, -0.5 + 0.1j, 0.2 - 0.8j]
        v = janossy_oracle(3, 1.5, pts)
        closed = math.exp(-math.fsum(abs(z) ** 2 for z in pts)) / math.pi ** 3
        for p in range(3):
            closed /= math.factorial(p)
        for p in range(3):
            for q in range(p + 1, 3):
                closed *= abs(pts[p] - pts[q]) ** 2
        assert v == pytest.approx(closed, rel=1e-10)

    def test_dual_routes_random(self):
        # agreement asserted internally; exercise many configurations
        rng = np.random.default_rng(10)
        for n_rank in (3, 5, 6):
            for k in range(n_rank + 1):
                for radius in (1.0, 2.0):
                    pts = random_disk_points(rng, k, radius)
                    v = janossy_oracle(n_rank, radius, pts)
                    assert v >= 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            janossy_oracle(3, 1.0, [0.1, 0.2, 0.3, 0.4])
        with pytest.raises(ValueError):
            janossy_oracle(3, 1.0, [2.0 + 0j])
        with pytest.raises(ValueError):
            janossy_oracle(40, 1.0, [])


class TestJointDensity:
    def test_normalization_monte_carlo(self):
        # under iid standard complex Gaussian proposals the importance
        # weight collapses to |z1 - z2|^2 / 2, whose mean is exactly 1
        rng = np.random.default_rng(12)
        m = 200_000
        z1 = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / math.sqrt(2)
        z2 = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / math.sqrt(2)
        log_q = (-np.abs(z1) ** 2 - np.abs(z2) ** 2) - 2 * math.log(math.pi)
        log_p = np.array([
            log_joint_density(2, [a, b]) for a, b in zip(z1[:2000], z2[:2000])
        ])
        weights = np.exp(log_p - log_q[:2000])
        estimate = float(weights.mean())
        sigma = float(weights.std(ddof=1) / math.sqrt(len(weights)))
        assert abs(estimate - 1.0) < max(3 * sigma, 0.01)

    def test_coincident_points(self):
        assert log_joint_density(2, [0.5, 0.5]) == -math.inf
