"""Method A: the truncated Ginibre process as random-matrix eigenvalues.

An N x N matrix with iid standard complex Gaussian entries (real and
imaginary parts N(0, 1/2) each, so E|entry|^2 = 1) has eigenvalues
distributed as the rank-N truncated Ginibre process. No symmetry is
imposed on the matrix.
"""

from __future__ import annotations

import numpy as np

from . import eigen
from .records import SampleSet

__all__ = [
    "sample_ginibre_matrix",
    "sample_ginibre_matrix_batch",
    "sample_truncated_ginibre",
    "sample_truncated_ginibre_batch",
]

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


def sample_truncated_ginibre(n: int, rng: np.random.Generator, seed: int = -1,
                             entry_scale: float = 1.0) -> SampleSet:
    """Draw the rank-n truncated Ginibre process: exactly n points.

    The support is the whole plane; projecting the output onto a compact
    subset randomizes the point count (use the conditioned pipeline when a
    fixed count on a disk is required).
    """
    mat = sample_ginibre_matrix(n, rng, entry_scale)
    pts = eigen.eigenvalues(mat)
    return SampleSet(points=pts, method="matrix", params={"N": n}, seed=seed,
                     notes={"support": "unbounded; restricting to a disk "
                                       "randomizes the point count"})


def sample_truncated_ginibre_batch(n: int, count: int, rng: np.random.Generator,
                                   entry_scale: float = 1.0) -> np.ndarray:
    """(count, n) eigenvalue stack drawn from a single stream."""
    mats = sample_ginibre_matrix_batch(n, count, rng, entry_scale)
    return eigen.eigenvalues_batch(mats)
