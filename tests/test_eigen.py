import math

import numpy as np
import pytest

from ginibre import eigen


def random_complex(rng, n, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2)


def sorted_match(a, b):
    """Greedy pairing error between two unordered eigenvalue sets."""
    a = list(a)
    err = 0.0
    for x in b:
        j = int(np.argmin([abs(x - y) for y in a]))
        err = max(err, abs(x - a[j]))
        a.pop(j)
    return err


class TestSmallClosedForms:
    def test_one_by_one(self):
        m = np.array([[2.5 - 1.0j]])
        assert eigen.eigenvalues(m)[0] == 2.5 - 1.0j

    def test_two_by_two_quadratic_formula(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            m = random_complex(rng, 2)
            tr = m[0, 0] + m[1, 1]
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            disc = np.sqrt(tr * tr - 4 * det + 0j)
            roots = [(tr + disc) / 2, (tr - disc) / 2]
            mine = eigen.eigenvalues(m)
            assert sorted_match(mine, roots) < 1e-12

    def test_companion_matrix_roots(self):
        roots = np.array([1.0, -2.0, 3.0j, -1.0 - 1.0j, 0.5])
        coeffs = np.poly(roots)  # monic, highest first
        n = len(roots)
        comp = np.zeros((n, n), dtype=complex)
        comp[0, :] = -coeffs[1:]
        comp[1:, :-1] = np.eye(n - 1)
        mine = eigen.eigenvalues(comp)
        assert sorted_match(mine, roots) < 1e-8


class TestSimilarityInvariants:
    @pytest.mark.parametrize("n", [3, 10, 25, 50])
    def test_trace_and_frobenius(self, n):
        rng = np.random.default_rng(n)
        m = random_complex(rng, n)
        ev = eigen.eigenvalues(m)
        norm = np.linalg.norm(m)
        assert abs(ev.sum() - np.trace(m)) <= 1e-10 * norm
        assert np.sum(np.abs(ev) ** 2) <= norm ** 2 + 1e-9

    @pytest.mark.parametrize("n", [5, 20, 50])
    def test_determinant_modulus(self, n):
        rng = np.random.default_rng(100 + n)
        m = random_complex(rng, n)
        ev = eigen.eigenvalues(m)
        log_mine = float(np.sum(np.log(np.abs(ev))))
        _, log_ref = np.linalg.slogdet(m)
        assert log_mine == pytest.approx(log_ref, rel=1e-8, abs=1e-8)


class TestAgainstReference:
    @pytest.mark.parametrize("n", [2, 3, 7, 15, 40, 60])
    def test_matches_lapack(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(5):
            m = random_complex(rng, n)
            mine = eigen.eigenvalues(m)
            ref = np.linalg.eigvals(m)
            assert sorted_match(mine, ref) < 1e-9 * max(1.0, np.linalg.norm(m))

    def test_defective_jordan_block(self):
        # a 4x4 Jordan block: eigenvalue accuracy degrades like eps^(1/4)
        m = np.diag(np.ones(3), 1).astype(complex) + 2.0 * np.eye(4)
        ev = eigen.eigenvalues(m)
        assert np.max(np.abs(ev - 2.0)) < 5e-4

    def test_graded_matrix_balanced(self):
        rng = np.random.default_rng(9)
        base = random_complex(rng, 6)
        d = np.diag(10.0 ** np.arange(-6, 6, 2).astype(float))
        m = d @ base @ np.linalg.inv(d)
        mine = eigen.eigenvalues(m)
        ref = np.linalg.eigvals(base)
        assert sorted_match(mine, ref) < 1e-7


class TestBackwardError:
    @pytest.mark.parametrize("n", [5, 20, 50])
    def test_backward_error(self, n):
        # exact backward error of each eigenvalue: sigma_min(M - lam I) / ||M||_2
        rng = np.random.default_rng(300 + n)
        m = random_complex(rng, n)
        norm = np.linalg.norm(m, 2)
        for lam in eigen.eigenvalues(m):
            sigma_min = np.linalg.svd(m - lam * np.eye(n), compute_uv=False)[-1]
            assert sigma_min <= 1e-12 * norm


class TestBatchSemantics:
    def test_batch_equals_single_bitwise(self):
        rng = np.random.default_rng(4)
        mats = np.stack([random_complex(rng, 9) for _ in range(12)])
        batch = eigen.eigenvalues_batch(mats)
        for i in range(12):
            solo = eigen.eigenvalues(mats[i])
            assert np.array_equal(batch[i], solo)

    def test_batch_composition_independent(self):
        rng = np.random.default_rng(5)
        target = random_complex(rng, 11)
        out1 = eigen.eigenvalues_batch(np.stack([target, random_complex(rng, 11)]))[0]
        out2 = eigen.eigenvalues_batch(
            np.stack([target] + [random_complex(rng, 11) for _ in range(7)]))[0]
        assert np.array_equal(out1, out2)

    def test_empty_order(self):
        out = eigen.eigenvalues_batch(np.empty((3, 0, 0), dtype=complex))
        assert out.shape == (3, 0)


class TestErrorPaths:
    def test_nonfinite_rejected(self):
        m = np.array([[1.0, np.inf], [0.0, 1.0]])
        with pytest.raises(ValueError):
            eigen.eigenvalues(m)

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            eigen.eigenvalues_batch(np.zeros((1, 2, 3)))

    @pytest.mark.parametrize("routine", ["zgebal", "zgehrd", "zgees"])
    def test_lapack_failure_is_loud(self, monkeypatch, routine):
        real = getattr(eigen, routine)
        monkeypatch.setattr(eigen, routine, lambda *a, **k: (*real(*a, **k)[:-1], 1))
        rng = np.random.default_rng(6)
        with pytest.raises(eigen.EigensolverError, match=routine):
            eigen.eigenvalues(random_complex(rng, 8))
