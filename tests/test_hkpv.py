import math
import pickle

import numpy as np
import pytest
from scipy import stats as scipy_stats

from ginibre import hkpv, kernels
from ginibre.kernels import BasisSubset, conditioned_basis, spectrum_profile
from ginibre.records import RejectionDiagnostics


class TestFeatureVector:
    def test_origin_activates_only_index_zero(self):
        v = hkpv.feature_vector(conditioned_basis(4), 0.0)
        assert v[0] != 0.0
        assert np.all(v[1:] == 0.0)

    def test_norm_equals_kernel_diagonal(self):
        rng = np.random.default_rng(1)
        basis = conditioned_basis(6)
        for _ in range(20):
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            v = hkpv.feature_vector(basis, z)
            diag = kernels.conditioned_kernel(6, z, z).real
            assert float(np.sum(np.abs(v) ** 2)) == pytest.approx(diag, rel=1e-10)

    def test_total_norm_integrates_to_size(self, disk_quad):
        basis = BasisSubset(spectrum_profile(1.5, rank=8), (0, 1, 3, 4, 7))
        z, w = disk_quad(1.5)
        v = hkpv.feature_vector(basis, z)
        total = float(np.sum(w * np.sum(np.abs(v) ** 2, axis=0)))
        assert total == pytest.approx(basis.size, abs=1e-5)

    def test_zero_outside_disk(self):
        v = hkpv.feature_vector(conditioned_basis(3), 10.0 + 0j)
        assert np.all(v == 0.0)


class TestConditionalDensity:
    def test_first_step_is_norm_over_n(self):
        basis = conditioned_basis(5)
        state = hkpv.OrthoState(basis=basis)
        rng = np.random.default_rng(2)
        for _ in range(10):
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            v = hkpv.feature_vector(basis, z)
            expected = float(np.sum(np.abs(v) ** 2)) / 5
            assert hkpv.conditional_density(state, z) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 8])
    def test_integrates_to_one_every_step(self, n, disk_quad):
        radius = math.sqrt(n)
        basis = conditioned_basis(n)
        z, w = disk_quad(radius, n_r=96, n_theta=4 * n + 8)
        state = hkpv.OrthoState(basis=basis)
        rng = np.random.default_rng(3)
        sup = hkpv.sup_feature_norm_sq(basis)
        for step in range(n):
            mass = float(np.sum(w * hkpv.conditional_density(state, z)))
            assert mass == pytest.approx(1.0, abs=1e-4)
            pt = hkpv.rejection_step(state, rng, sup / state.remaining)
            state.add_point(pt)

    def test_vanishes_at_accepted_points(self):
        n = 6
        basis = conditioned_basis(n)
        state = hkpv.OrthoState(basis=basis)
        rng = np.random.default_rng(4)
        sup = hkpv.sup_feature_norm_sq(basis)
        while state.remaining > 1:
            pt = hkpv.rejection_step(state, rng, sup / state.remaining)
            state.add_point(pt)
            for accepted in state.accepted:
                assert hkpv.conditional_density(state, accepted) <= 1e-8

    def test_two_point_formula_determinant_ratio(self):
        # p_1(x) after accepting X equals p2(X, x) / p1(X) with the
        # densities built from determinants of the projection kernel
        n = 2
        basis = conditioned_basis(n)
        state = hkpv.OrthoState(basis=basis)
        first = 0.4 + 0.3j
        state.add_point(first)
        rng = np.random.default_rng(5)
        u = rng.uniform(-1, 1, (20, 2))
        zs = u[:, 0] + 1j * u[:, 1]
        pairs = np.stack([np.full(20, first), zs], axis=1)
        kmats = kernels.conditioned_kernel(n, pairs[:, :, None], pairs[:, None, :])
        for z, kmat in zip(zs, kmats):
            p2 = np.linalg.det(kmat).real / 2.0
            p1 = kmat[0, 0].real / 2.0
            assert hkpv.conditional_density(state, z) == pytest.approx(
                p2 / p1, rel=1e-10, abs=1e-12)

    def test_zero_pivot_raises(self):
        # after accepting 0, the complement of v(0) = (c, 0) is exactly e_2,
        # so a second 0 has pivot C v(0) = 0 exactly
        state = hkpv.OrthoState(basis=conditioned_basis(2))
        state.add_point(0j)
        with pytest.raises(hkpv.OrthogonalityError):
            state.add_point(0j)


class TestEnvelope:
    def test_matches_dense_grid(self):
        basis = conditioned_basis(2)
        state = hkpv.OrthoState(basis=basis)
        sup = hkpv.sup_feature_norm_sq(basis)
        grid = np.linspace(0, basis.radius, 20001).astype(complex)
        v = hkpv.feature_vector(basis, grid)
        dense = float(np.max(np.sum(np.abs(v) ** 2, axis=0)))
        assert sup == pytest.approx(dense, rel=1e-6)
        assert sup / state.remaining == pytest.approx(dense / 2, rel=1e-6)

    @staticmethod
    def dense_radial_max(basis):
        v = hkpv.feature_vector(basis, np.linspace(0, basis.radius, 20001).astype(complex))
        return float(np.max(np.sum(np.abs(v) ** 2, axis=0)))

    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0, 3.0, 5.0, 8.0])
    def test_dominates_dense_grid_thinned(self, radius):
        # Bernoulli-thinned bases, as the projected sampler draws them
        prof = spectrum_profile(radius)
        rng = np.random.default_rng(int(100 * radius))
        for _ in range(5):
            keep = np.flatnonzero(rng.random(prof.count) < prof.eigenvalues)
            if keep.size == 0:
                continue
            basis = BasisSubset(prof, tuple(int(i) for i in keep))
            assert hkpv.sup_feature_norm_sq(basis) >= (1 - 1e-12) * self.dense_radial_max(basis)

    @pytest.mark.parametrize("n", [1, 2, 3, 20, 100])
    def test_dominates_dense_grid_conditioned(self, n):
        basis = conditioned_basis(n)
        assert hkpv.sup_feature_norm_sq(basis) >= (1 - 1e-12) * self.dense_radial_max(basis)

    def test_bounds_density_throughout_run(self):
        n = 20
        basis = conditioned_basis(n)
        state = hkpv.OrthoState(basis=basis)
        rng = np.random.default_rng(6)
        sup = hkpv.sup_feature_norm_sq(basis)
        probes = np.array([
            complex(r * math.cos(t), r * math.sin(t))
            for r, t in zip(basis.radius * np.sqrt(rng.random(500)),
                            rng.uniform(-math.pi, math.pi, 500))
        ])
        while state.remaining > 0:
            envelope = sup / state.remaining
            dens = hkpv.conditional_density(state, probes)
            assert np.all(dens <= envelope * (1 + 1e-9))
            pt = hkpv.rejection_step(state, rng, envelope)
            state.add_point(pt)


class TestRejectionStep:
    def test_rank_one_radius_histogram(self):
        # |phi_0|^2 radial law on B_1: P(|X| <= r) = gamma(1, r^2)/gamma(1, 1)
        basis = BasisSubset(spectrum_profile(1.0, rank=1), (0,))
        state = hkpv.OrthoState(basis=basis)
        rng = np.random.default_rng(8)
        sup = hkpv.sup_feature_norm_sq(basis)
        m = 100_000
        radii = np.empty(m)
        for i in range(m):
            radii[i] = abs(hkpv.rejection_step(state, rng, sup))
        edges = np.linspace(0.0, 1.0, 9)
        gam1 = 1 - math.exp(-1.0)
        cdf = (1 - np.exp(-edges ** 2)) / gam1
        expected = np.diff(cdf)
        counts, _ = np.histogram(radii, bins=edges)
        for obs, p in zip(counts, expected):
            sigma = math.sqrt(m * p * (1 - p))
            assert abs(obs - m * p) <= 3.5 * sigma

    def test_acceptance_rate_identity(self):
        # acceptance probability = 1 / (envelope * disk area)
        basis = conditioned_basis(3)
        state = hkpv.OrthoState(basis=basis)
        rng = np.random.default_rng(9)
        sup = hkpv.sup_feature_norm_sq(basis)
        envelope = sup / 3
        diag = RejectionDiagnostics()
        m = 20_000
        for _ in range(m):
            hkpv.rejection_step(state, rng, envelope, diagnostics=diag)
        area = math.pi * basis.radius ** 2
        p = 1.0 / (envelope * area)
        rate = diag.acceptances / diag.proposals
        sigma = math.sqrt(p * (1 - p) / diag.proposals)
        assert abs(rate - p) <= 4 * sigma

    def test_counters_monotone(self):
        basis = conditioned_basis(2)
        state = hkpv.OrthoState(basis=basis)
        rng = np.random.default_rng(10)
        diag = RejectionDiagnostics()
        sup = hkpv.sup_feature_norm_sq(basis)
        last_p, last_a = 0, 0
        for _ in range(50):
            hkpv.rejection_step(state, rng, sup / 2, diagnostics=diag)
            assert diag.proposals > last_p and diag.acceptances > last_a
            assert diag.acceptances <= diag.proposals
            last_p, last_a = diag.proposals, diag.acceptances

    def test_proposal_cap_raises(self):
        basis = conditioned_basis(1)
        state = hkpv.OrthoState(basis=basis)
        rng = np.random.default_rng(11)
        with pytest.raises(hkpv.RejectionCapError):
            # absurd envelope forces rejection of every proposal
            hkpv.rejection_step(state, rng, 1e12, max_proposals=50)


def scalar_rejection_step(state, rng, envelope, max_proposals):
    """Reference: one proposal at a time, (radius, angle, u) in stream order."""
    radius = state.basis.radius
    for attempt in range(1, max_proposals + 1):
        r = radius * math.sqrt(rng.random())
        theta = rng.uniform(-math.pi, math.pi)
        z = complex(r * math.cos(theta), r * math.sin(theta))
        if rng.random() * envelope < hkpv.conditional_density(state, z):
            return z, attempt
    raise hkpv.RejectionCapError(f"no acceptance after {max_proposals} proposals")


def reference_add_point(state, z):
    """Reference: the Householder update with w recomputed at z and the
    rank-1 term formed by np.outer."""
    c = state.complement
    a = c @ hkpv.feature_vector(state.basis, z)
    norm_a = np.linalg.norm(a)
    abs_a1 = abs(a[0])
    u = a.copy()
    u[0] += (a[0] / abs_a1 if abs_a1 else 1.0) * norm_a
    c[1:] -= np.outer(a[1:] / (norm_a * (norm_a + abs_a1)), u.conj() @ c)
    state.complement = c[1:]
    state.accepted.append(complex(z))


def stream_state(rng):
    # pickled, so MT19937's key array compares by value
    return pickle.dumps(rng.bit_generator.state)


class TestBlockStream:
    """The block step reads the stream exactly as the one-proposal loop."""

    BASES = {
        **{f"conditioned_n{n}": (lambda n=n: conditioned_basis(n)) for n in (1, 3, 20, 100)},
        "projected_r3_thinned": lambda: BasisSubset(spectrum_profile(3.0),
                                                    (0, 1, 2, 4, 5, 7, 8, 11, 13)),
    }

    @pytest.mark.parametrize("make_rng", [
        lambda: np.random.default_rng(21),
        lambda: np.random.Generator(np.random.MT19937(5)),
    ], ids=["pcg64", "mt19937"])
    @pytest.mark.parametrize("name", list(BASES))
    def test_same_points_attempts_and_state(self, name, make_rng):
        basis = self.BASES[name]()
        sup = hkpv.sup_feature_norm_sq(basis)
        ref_state, block_state = hkpv.OrthoState(basis=basis), hkpv.OrthoState(basis=basis)
        ref_rng, block_rng = make_rng(), make_rng()
        diag = RejectionDiagnostics()
        while block_state.remaining > 0:
            envelope = sup / block_state.remaining
            z_ref, attempts = scalar_rejection_step(ref_state, ref_rng, envelope, 10**6)
            before = diag.proposals
            z = hkpv.rejection_step(block_state, block_rng, envelope, diagnostics=diag)
            assert np.complex128(z).tobytes() == np.complex128(z_ref).tobytes()
            assert diag.proposals - before == attempts
            assert stream_state(block_rng) == stream_state(ref_rng)
            ref_state.add_point(z_ref)
            block_state.add_point(z)

    def test_cap_consumes_exactly_three_doubles_per_proposal(self):
        # 2048 basis functions cap the block at 32 proposals; 37 = 32 + 5
        state = hkpv.OrthoState(basis=conditioned_basis(2048))
        rng, ref = np.random.default_rng(11), np.random.default_rng(11)
        with pytest.raises(hkpv.RejectionCapError):
            hkpv.rejection_step(state, rng, 1e12, max_proposals=37)
        ref.random(3 * 37)
        assert stream_state(rng) == stream_state(ref)


class TestSampleProjectionDpp:
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_exact_count(self, n):
        basis = conditioned_basis(n)
        pts = hkpv.sample_projection_dpp(basis, np.random.default_rng(n),
                                         sup_norm_sq=hkpv.sup_feature_norm_sq(basis))
        assert len(pts) == n
        assert np.all(np.abs(pts) <= math.sqrt(n) + 1e-9)

    def test_rank_one_radius_ks(self):
        basis = BasisSubset(spectrum_profile(1.0, rank=1), (0,))
        rng = np.random.default_rng(12)
        m = 20_000
        sup = hkpv.sup_feature_norm_sq(basis)
        radii = np.array([
            abs(hkpv.sample_projection_dpp(basis, rng, sup_norm_sq=sup)[0])
            for _ in range(m)])
        gam1 = 1 - math.exp(-1.0)
        res = scipy_stats.kstest(radii, lambda r: (1 - np.exp(-r ** 2)) / gam1)
        assert res.pvalue > 0.01

    @staticmethod
    def assert_complement_orthonormal(n, seed, tol):
        # after every accepted point: C C* = I, and C annihilates every
        # accepted feature vector w_k relative to its norm
        basis = conditioned_basis(n)
        state = hkpv.OrthoState(basis=basis)
        rng = np.random.default_rng(seed)
        sup = hkpv.sup_feature_norm_sq(basis)
        while state.remaining > 0:
            state.add_point(hkpv.rejection_step(state, rng, sup / state.remaining))
            c = state.complement
            assert np.max(np.abs(c @ c.conj().T - np.eye(len(c))), initial=0.0) <= tol
            w = hkpv.feature_vector(basis, np.array(state.accepted))
            assert np.max(np.abs(c @ w) / np.linalg.norm(w, axis=0), initial=0.0) <= tol

    def test_orthonormal_vectors_maintained_n100(self):
        self.assert_complement_orthonormal(100, 13, 1e-8)

    def test_orthonormal_vectors_maintained_n200(self):
        # Householder updates stay at working precision
        self.assert_complement_orthonormal(200, 15, 1e-12)

    @staticmethod
    def thinned_basis(radius, seed):
        # a Bernoulli-thinned disk basis, as the projected route draws it
        prof = spectrum_profile(radius)
        keep = np.flatnonzero(np.random.default_rng(seed).random(prof.count) < prof.eigenvalues)
        return BasisSubset(prof, tuple(int(i) for i in keep))

    @pytest.mark.parametrize("seed", [0, 101, 105])
    @pytest.mark.parametrize("make_basis", [
        *[(lambda seed, n=n: conditioned_basis(n)) for n in (2, 20, 100)],
        lambda seed: TestSampleProjectionDpp.thinned_basis(5.0, seed),
    ], ids=["conditioned_n2", "conditioned_n20", "conditioned_n100", "projected_r5"])
    def test_update_matches_reference_loop(self, make_basis, seed):
        # the block column and the in-place zgeru give the reference's
        # complement projector C* C to rounding, and the same points bit for
        # bit. C itself is compared through C* C: when |a_1| << ||a||, the
        # rounding of a_1 sets the phase of the reflection, which rotates
        # the rows of C (by up to 1e-5 at N = 100) without moving their span
        basis = make_basis(seed)
        sup = hkpv.sup_feature_norm_sq(basis)
        state, ref = hkpv.OrthoState(basis=basis), hkpv.OrthoState(basis=basis)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        while state.remaining > 0:
            state.add_point(hkpv.rejection_step(state, rng, sup / state.remaining))
            reference_add_point(ref, hkpv.rejection_step(ref, ref_rng, sup / ref.remaining))
            c, c_ref = state.complement, ref.complement
            assert np.max(np.abs(c.conj().T @ c - c_ref.conj().T @ c_ref)) <= 1e-13
        ref_points = np.array(ref.accepted, dtype=complex)
        assert np.array(state.accepted, dtype=complex).tobytes() == ref_points.tobytes()
        drawn = hkpv.sample_projection_dpp(basis, np.random.default_rng(seed), sup_norm_sq=sup)
        assert drawn.tobytes() == ref_points.tobytes()

    def test_add_point_outside_last_block(self, monkeypatch):
        # a point among the last block's reuses its column; any other point
        # is evaluated, and either update leaves C C* = I with C w = 0
        n = 20
        basis = conditioned_basis(n)
        state = hkpv.OrthoState(basis=basis)
        rng = np.random.default_rng(19)
        sup = hkpv.sup_feature_norm_sq(basis)
        evaluations = []

        def counted(basis, z):
            evaluations.append(z)
            return kernels.feature_vector(basis, z)

        monkeypatch.setattr(hkpv, "feature_vector", counted)
        for step in range(6):
            z = hkpv.rejection_step(state, rng, sup / state.remaining)
            if step % 2:
                z = 0.31 * z - 0.2j  # not a point of the last block
            evaluations.clear()
            state.add_point(z)
            assert evaluations == ([z] if step % 2 else [])
            c = state.complement
            assert np.max(np.abs(c @ c.conj().T - np.eye(len(c)))) <= 1e-13
            w = kernels.feature_vector(basis, z)
            assert np.max(np.abs(c @ w)) <= 1e-13 * np.linalg.norm(w)

    def test_exchangeability_first_vs_last(self):
        # the output set is exchangeable: the first-accepted and
        # last-accepted marginal radius laws coincide
        basis = conditioned_basis(3)
        rng = np.random.default_rng(14)
        m = 4000
        sup = hkpv.sup_feature_norm_sq(basis)
        first = np.empty(m)
        last = np.empty(m)
        for i in range(m):
            pts = hkpv.sample_projection_dpp(basis, rng, sup_norm_sq=sup)
            first[i] = abs(pts[0])
            last[i] = abs(pts[-1])
        res = scipy_stats.ks_2samp(first, last)
        assert res.pvalue > 0.01

    def test_two_point_density_ratio_probes(self):
        # pair-count ratio at two probe pairs vs the joint density ratio
        n = 2
        basis = conditioned_basis(n)
        rng = np.random.default_rng(17)
        m = 200_000
        sup = hkpv.sup_feature_norm_sq(basis)
        pair_a = (-0.55 + 0.0j, 0.55 + 0.0j)   # well separated
        pair_b = (-0.18 + 0.0j, 0.18 + 0.0j)   # close: repulsion suppressed
        eps = 0.3
        hits_a = hits_b = 0
        for _ in range(m):
            pts = hkpv.sample_projection_dpp(basis, rng, sup_norm_sq=sup)
            for pair in ((pair_a, "a"), (pair_b, "b")):
                probes, tag = pair
                match = (
                    (abs(pts[0] - probes[0]) < eps and abs(pts[1] - probes[1]) < eps)
                    or (abs(pts[0] - probes[1]) < eps and abs(pts[1] - probes[0]) < eps)
                )
                if match:
                    if tag == "a":
                        hits_a += 1
                    else:
                        hits_b += 1

        def joint(pairs):
            # joint density of each row's two points, one kernel call for all
            kmats = kernels.conditioned_kernel(n, pairs[:, :, None], pairs[:, None, :])
            return np.linalg.det(kmats).real / 2.0

        ratio_emp = hits_a / hits_b
        # bin-averaged theoretical ratio: integrate the joint density over
        # the two probe disks by midpoint sampling
        quad = np.random.default_rng(18)
        offs = (quad.uniform(-eps, eps, (400, 2))
                + 1j * quad.uniform(-eps, eps, (400, 2)))
        offs = offs[np.all(np.abs(offs) < eps, axis=1)]

        def smeared(pair):
            return float(np.mean(2.0 * joint(np.array(pair) + offs)))

        ratio_th = smeared(pair_a) / smeared(pair_b)
        sigma = ratio_emp * math.sqrt(1 / max(hits_a, 1) + 1 / max(hits_b, 1))
        assert abs(ratio_emp - ratio_th) <= 3.5 * sigma
