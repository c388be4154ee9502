"""Method A: the truncated Ginibre process as random-matrix eigenvalues.

This module draws the matrices; `pipelines.sample_matrix_batch` takes
their eigenvalues, up to `pipelines.MATRIX_CHUNK` matrices per
`eigen.eigenvalues_batch` call. An N x N matrix with iid standard complex
Gaussian entries (real and imaginary parts N(0, 1/2) each, so
E|entry|^2 = 1) has eigenvalues distributed as the rank-N truncated
Ginibre process. No symmetry is imposed on the matrix.
"""

from __future__ import annotations

import numpy as np

__all__ = ["sample_ginibre_matrix", "sample_ginibre_matrix_batch"]

_ROOT_HALF = np.sqrt(0.5)


def sample_ginibre_matrix(n: int, rng: np.random.Generator,
                          entry_scale: float = 1.0) -> np.ndarray:
    """One n x n matrix of iid standard complex Gaussian entries.

    entry_scale multiplies every entry; anything other than 1.0 is a
    deliberate fault injection for negative-control tests.
    """
    if n < 1:
        raise ValueError(f"matrix order must be >= 1, got {n}")
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (_ROOT_HALF * entry_scale) * z


def sample_ginibre_matrix_batch(n: int, count: int, rng: np.random.Generator,
                                entry_scale: float = 1.0) -> np.ndarray:
    """(count, n, n) stack of independent Ginibre matrices from one stream."""
    z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    return (_ROOT_HALF * entry_scale) * z

