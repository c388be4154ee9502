"""Acceptance suite: every stated criterion at its stated scale/tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail
line per criterion. Monte Carlo criteria use the fixed master seed below;
tolerances are z-scores against theoretical standard deviations or exact
closed-form slack, as stated per criterion.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import stats as scipy_stats

from ginibre import eigen, hkpv, kernels, pipelines, validation
from ginibre.kernels import spectrum_profile
from ginibre.streams import stream_rng

SEED = 20250801
WORKERS = 2


def report(num: int, name: str, passed: bool, detail: str) -> None:
    mark = "PASS" if passed else "FAIL"
    print(f"[{mark}] criterion {num:2d} ({name}): {detail}")
    assert passed, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# shared heavy batches


@pytest.fixture(scope="module")
def kostlan_batch():
    return pipelines.sample_matrix_batch(50, seed=SEED, count=10_000,
                                         workers=WORKERS)


@pytest.fixture(scope="module")
def hole_batch():
    sampler = pipelines.GinibreDiskSampler(0.5)
    return sampler.sample_batch(SEED + 1, 100_000, workers=WORKERS)


def test_criterion_01_trace_identity():
    worst = 0.0
    for radius in (0.5, 1.0, 3.0, 10.0):
        prof = spectrum_profile(radius, epsilon=1e-12)
        worst = max(worst, abs(prof.trace - radius * radius))
    report(1, "trace identity", worst <= 1e-8,
           f"max |sum lambda - R^2| = {worst:.3e} <= 1e-8")


def test_criterion_02_kostlan_moments(kostlan_batch):
    m = len(kostlan_batch)
    k = 50 * 51 / 2.0
    sums = np.array([np.sum(np.abs(s.points) ** 2) for s in kostlan_batch])
    z_mean = abs(sums.mean() - k) / math.sqrt(k / m)
    mu4 = 3 * k * k + 6 * k
    sigma_var = math.sqrt((mu4 - k * k * (m - 3) / (m - 1)) / m)
    z_var = abs(sums.var(ddof=1) - k) / sigma_var
    report(2, "Kostlan moments", z_mean <= 3.0 and z_var <= 3.0,
           f"mean {sums.mean():.2f} vs 1275 (z={z_mean:.2f}), "
           f"variance {sums.var(ddof=1):.2f} vs 1275 (z={z_var:.2f}), m={m}")


def test_criterion_03_circular_law_bounds():
    n = 600
    root = math.sqrt(n)
    worst = -math.inf
    for u in np.arange(0.20, 1.0001, 0.02):
        g = math.exp(-2 * u * u) / (2 * math.sqrt(2) * u * math.pi ** 1.5)
        inside = kernels.radial_intensity(n, root - u)
        outside = kernels.radial_intensity(n, root + u)
        worst = max(worst, (1 / math.pi - g) - inside, outside - g)
    report(3, "circular-law bounds", worst <= 1e-12,
           f"max inequality violation {worst:.3e} <= 1e-12 over u in [0.2, 1]")


def test_criterion_04_delta_asymptotic():
    ratios = {n: validation.delta_n(n) / math.sqrt(n / (2 * math.pi))
              for n in (100, 400, 900)}
    gaps = [abs(ratios[n] - 1.0) for n in (100, 400, 900)]
    in_bracket = 0.9 <= ratios[900] <= 1.1
    monotone = gaps[0] > gaps[1] > gaps[2]
    report(4, "delta(N) asymptotic", in_bracket and monotone,
           f"ratio(900)={ratios[900]:.6f} in [0.9,1.1]; |ratio-1| gaps "
           f"{gaps[0]:.2e} > {gaps[1]:.2e} > {gaps[2]:.2e}")


def test_criterion_05_hole_probability(hole_batch):
    m = len(hole_batch)
    prof = spectrum_profile(0.5)
    p = math.exp(prof.log_hole_probability())
    freq = np.mean([len(s) == 0 for s in hole_batch])
    z = abs(freq - p) / math.sqrt(p * (1 - p) / m)
    report(5, "hole probability", z <= 3.0,
           f"empty frequency {freq:.5f} vs {p:.5f} (z={z:.2f}, m={m})")


def test_criterion_06_expected_count():
    all_ok = True
    details = []
    for radius in (1.0, 2.0):
        sampler = pipelines.GinibreDiskSampler(radius)
        batch = sampler.sample_batch(SEED + int(radius * 100), 10_000,
                                     workers=WORKERS)
        counts = np.array([len(s) for s in batch], dtype=float)
        m = len(counts)
        lam = sampler.profile.eigenvalues
        var_th = float((lam * (1 - lam)).sum())
        z_mean = abs(counts.mean() - radius ** 2) / math.sqrt(var_th / m)
        mu4 = float((lam * (1 - lam) * (1 - 6 * lam * (1 - lam))).sum()) + 3 * var_th ** 2
        sigma_var = math.sqrt((mu4 - var_th ** 2 * (m - 3) / (m - 1)) / m)
        z_var = abs(counts.var(ddof=1) - var_th) / sigma_var
        all_ok &= z_mean <= 3.0 and z_var <= 4.0
        details.append(f"R={radius}: mean z={z_mean:.2f}, var z={z_var:.2f}")
    report(6, "expected count", all_ok, "; ".join(details))


def test_criterion_07_conditioning_probability():
    all_ok = True
    details = []
    for n in (1, 2, 3):
        batch = pipelines.sample_matrix_batch(n, seed=SEED + 7000 + n,
                                              count=10_000, workers=WORKERS)
        inside = np.mean([np.all(np.abs(s.points) <= math.sqrt(n)) for s in batch])
        p = pipelines.acceptance_probability_all_in_disk(n)
        z = abs(inside - p) / math.sqrt(p * (1 - p) / len(batch))
        all_ok &= z <= 3.0
        details.append(f"N={n}: {inside:.4f} vs {p:.4f} (z={z:.2f})")
    report(7, "conditioning probability", all_ok, "; ".join(details))


def test_criterion_08_method_equivalence():
    all_ok = True
    details = []
    for n in (2, 3):
        rng = stream_rng(SEED + 8000 + n, 0)
        reference = np.stack([pipelines.conditioned_by_rejection(n, rng).points
                              for _ in range(10_000)])
        candidate = np.stack([s.points for s in pipelines.ConditionedSampler(n).sample_batch(
            SEED + 8500 + n, 10_000, workers=WORKERS)])
        checks = validation.method_equivalence_check(reference, candidate)
        pvals = {c.name: c.empirical for c in checks}
        all_ok &= all(c.passed for c in checks)
        details.append(f"N={n}: " + ", ".join(
            f"{k.split('_', 1)[1]} p={v:.3f}" for k, v in pvals.items()))
    report(8, "method equivalence (KS @ 0.01)", all_ok, "; ".join(details))


def test_criterion_09_janossy_dual_route():
    rng = np.random.default_rng(SEED)
    trials = 0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        k = int(rng.integers(0, n + 1))
        radius = float(rng.choice([1.0, 2.0]))
        pts = []
        while len(pts) < k:
            z = complex(rng.uniform(-radius, radius), rng.uniform(-radius, radius))
            if abs(z) <= radius:
                pts.append(z)
        # janossy_oracle raises if the det route and the Cauchy-Binet
        # route disagree beyond 1e-8 relative
        kernels.janossy_oracle(n, radius, pts)
        trials += 1
    report(9, "Janossy dual-route oracle", trials == 100,
           f"{trials}/100 random configurations agree within 1e-8 relative")


def test_criterion_10_hkpv_conditional_densities():
    from conftest import polar_quadrature
    all_ok = True
    worst_mass = 0.0
    worst_at_points = 0.0
    for n in (2, 5, 8):
        basis = kernels.conditioned_basis(n)
        z, w = polar_quadrature(math.sqrt(n), n_r=96, n_theta=4 * n + 8)
        state = hkpv.OrthoState(basis=basis)
        rng = stream_rng(SEED + n, 0)
        sup = hkpv.sup_feature_norm_sq(basis)
        for _ in range(n):
            mass = float(np.sum(w * hkpv.conditional_density(state, z)))
            worst_mass = max(worst_mass, abs(mass - 1.0))
            all_ok &= abs(mass - 1.0) <= 1e-4
            pt = hkpv.rejection_step(state, rng, sup / state.remaining)
            state.add_point(pt)
            for accepted in state.accepted:
                val = hkpv.conditional_density(state, accepted) if state.remaining else 0.0
                worst_at_points = max(worst_at_points, val)
                all_ok &= val <= 1e-8
    report(10, "HKPV conditional densities", all_ok,
           f"max |int p - 1| = {worst_mass:.2e} <= 1e-4; "
           f"max p at accepted = {worst_at_points:.2e} <= 1e-8")


def test_criterion_11_eigensolver():
    rng = np.random.default_rng(SEED)
    worst_trace = 0.0
    for n in (3, 10, 25, 50):
        m = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)
        ev = eigen.eigenvalues(m)
        worst_trace = max(worst_trace,
                          abs(ev.sum() - np.trace(m)) / np.linalg.norm(m))
    roots = np.array([1.0, -2.0, 3.0j, -1.0 - 1.0j, 0.5])
    coeffs = np.poly(roots)
    comp = np.zeros((5, 5), dtype=complex)
    comp[0, :] = -coeffs[1:]
    comp[1:, :-1] = np.eye(4)
    got = eigen.eigenvalues(comp)
    comp_err = 0.0
    pool = list(got)
    for r in roots:
        j = int(np.argmin([abs(r - p) for p in pool]))
        comp_err = max(comp_err, abs(r - pool.pop(j)))
    two_err = 0.0
    for _ in range(50):
        m2 = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        tr = m2[0, 0] + m2[1, 1]
        det = m2[0, 0] * m2[1, 1] - m2[0, 1] * m2[1, 0]
        disc = np.sqrt(tr * tr - 4 * det + 0j)
        exact = [(tr + disc) / 2, (tr - disc) / 2]
        got2 = list(eigen.eigenvalues(m2))
        for r in exact:
            j = int(np.argmin([abs(r - p) for p in got2]))
            two_err = max(two_err, abs(r - got2.pop(j)))
    ok = worst_trace <= 1e-10 and comp_err <= 1e-8 and two_err <= 1e-12
    report(11, "eigensolver", ok,
           f"trace residual {worst_trace:.2e} <= 1e-10; companion {comp_err:.2e} "
           f"<= 1e-8; 2x2 closed form {two_err:.2e} <= 1e-12")


def test_criterion_12_kernel_convergence():
    sups = {n: kernels.conditioned_kernel_max_deviation(n) for n in (10, 25, 50)}
    decreasing = sups[10] > sups[25] > sups[50]
    # series tail bound at |z| <= 1: sum_{n<N} Q(n+1,N)/gamma-normalized
    # deviation plus truncation tail; evaluates to ~1e-16 at N=50, so the
    # 1e-6 threshold leaves 10 orders of headroom above grid/float noise
    small = sups[50] <= 1e-6
    report(12, "kernel convergence", decreasing and small,
           f"sup|K - Ktilde^N| on B_1: {sups[10]:.2e} > {sups[25]:.2e} > "
           f"{sups[50]:.2e}, final <= 1e-6")


def test_criterion_13_cli_determinism(tmp_path):
    base = [sys.executable, "-m", "ginibre.cli", "sample", "--method", "projected",
            "--radius", "1.0", "--count", "200", "--seed", "42"]
    outs = []
    for i, extra in enumerate(([], [], ["--workers", "2"])):
        path = tmp_path / f"run{i}.csv"
        proc = subprocess.run(base + extra + ["-o", str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append(path.read_bytes())
    identical = outs[0] == outs[1] == outs[2]
    report(13, "determinism", identical,
           "byte-identical output across reruns and worker counts")
