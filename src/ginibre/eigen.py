"""Dense non-symmetric complex eigenvalues through LAPACK.

Three stages, one LAPACK call per matrix each, through
`scipy.linalg.lapack`:

- `_balance_batch`: diagonal balancing by powers of two (`zgebal`,
  scaling only, no permutation);
- `_hessenberg_batch`: Householder reduction to upper Hessenberg form
  (`zgehrd`), with the reflectors below the subdiagonal cleared;
- `_qr_eigvals_batch`: Hessenberg QR (`zgees` without Schur vectors,
  which runs `zhseqr`; scipy does not expose `zhseqr` itself).

Each matrix is solved on its own, so a result never depends on its batch
mates or on how a workload is chunked. It can depend on the BLAS thread
count: `zgehrd` (and `zgees` at large orders) call threaded BLAS whose
rounding changes with the number of threads, from order about 74 up.

A LAPACK failure (`info != 0`) is always reported as `EigensolverError`,
never silent.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import zgebal, zgees, zgehrd

__all__ = ["EigensolverError", "eigenvalues", "eigenvalues_batch"]


class EigensolverError(RuntimeError):
    """A LAPACK stage reported failure, such as QR not converging."""


def _check(routine: str, info: int, n: int) -> None:
    if info != 0:
        raise EigensolverError(f"LAPACK {routine} returned info={info} "
                               f"on a matrix of order {n}")


def _balance_batch(h: np.ndarray) -> None:
    """Diagonal similarity scaling of each matrix (zgebal), in place."""
    n = h.shape[1]
    for k in range(h.shape[0]):
        balanced, _, _, _, info = zgebal(h[k], scale=1, permute=0)
        _check("zgebal", info, n)
        h[k] = balanced


def _hessenberg_batch(h: np.ndarray) -> None:
    """Reduction of each matrix to upper Hessenberg form (zgehrd), in place."""
    n = h.shape[1]
    for k in range(h.shape[0]):
        reduced, _, info = zgehrd(h[k])
        _check("zgehrd", info, n)
        h[k] = np.triu(reduced, -1)


def _no_sort(_value) -> int:
    return 0


def _qr_eigvals_batch(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of upper Hessenberg matrices (zgees)."""
    n = h.shape[1]
    result = np.empty(h.shape[:2], dtype=complex)
    for k in range(h.shape[0]):
        _, _, values, _, _, info = zgees(_no_sort, h[k], compute_v=0, sort_t=0)
        _check("zgees", info, n)
        result[k] = values
    return result


def eigenvalues_batch(matrices: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of square complex matrices.

    Args:
        matrices: array-like of shape (batch, n, n).

    Returns:
        (batch, n) complex array, eigenvalues in no particular order.

    Raises:
        EigensolverError: if a LAPACK stage fails on any matrix.
    """
    h = np.array(matrices, dtype=complex, order="C")
    if h.ndim != 3 or h.shape[1] != h.shape[2]:
        raise ValueError(f"expected shape (batch, n, n), got {h.shape}")
    if not np.isfinite(h.view(np.float64)).all():
        raise ValueError("matrix entries must be finite")
    if h.shape[1] == 0:
        return np.empty((h.shape[0], 0), dtype=complex)
    _balance_batch(h)
    _hessenberg_batch(h)
    return _qr_eigvals_batch(h)


def eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of one square complex matrix (unordered)."""
    return eigenvalues_batch(np.asarray(matrix)[None, :, :])[0]
