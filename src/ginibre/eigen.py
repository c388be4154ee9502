"""Dense non-symmetric complex eigensolver.

Pipeline: diagonal balancing -> Householder reduction to upper Hessenberg
form -> explicitly shifted QR iteration (Wilkinson shifts, Givens
rotations, deflation). Everything is written batch-first: a stack of
matrices advances through the iteration together, each with its own
active window, shift and deflation state, so Monte Carlo workloads
amortize the Python overhead. The arithmetic applied to one matrix never
depends on its batch mates, which keeps results identical however a
workload is chunked.

A convergence failure is always reported, never silent.
"""

from __future__ import annotations

import numpy as np

__all__ = ["EigensolverError", "eigenvalues", "eigenvalues_batch"]

_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)

# Subdiagonal h[i+1, i] is deflated when |h| <= eps * (|h[i,i]| + |h[i+1,i+1]|).
_DEFLATION_FACTOR = _EPS

# Total QR sweeps allowed per matrix: 30 per eigenvalue.
_SWEEPS_PER_EIGENVALUE = 30


class EigensolverError(RuntimeError):
    """QR iteration failed to converge within the sweep budget."""


def _balance_batch(h: np.ndarray, max_sweeps: int = 20) -> None:
    """Diagonal power-of-two similarity scaling, in place.

    Simultaneous (Jacobi-style) variant of the classic balancing pass;
    any diagonal similarity is exact, so this only has to help, not be
    optimal. No-op for matrices that are already balanced.
    """
    b, n, _ = h.shape
    for _ in range(max_sweeps):
        mags = np.abs(h)
        idx = np.arange(n)
        mags[:, idx, idx] = 0.0
        col = mags.sum(axis=1)
        row = mags.sum(axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            expo = np.where(
                (col > 0.0) & (row > 0.0),
                np.round(0.5 * np.log2(row / col)),
                0.0,
            )
        np.clip(expo, -64, 64, out=expo)
        if not expo.any():
            return
        scale = np.exp2(expo)
        better = col * scale + row / scale < 0.95 * (col + row)
        scale = np.where(better, scale, 1.0)
        h *= scale[:, None, :]
        h /= scale[:, :, None]
        if not better.any():
            return


def _hessenberg_batch(h: np.ndarray) -> None:
    """Householder reduction to upper Hessenberg form, in place."""
    b, n, _ = h.shape
    for j in range(n - 2):
        x = h[:, j + 1 :, j]
        norm = np.linalg.norm(x, axis=1)
        x0 = x[:, 0]
        absx0 = np.abs(x0)
        sign = np.where(absx0 > 0.0, x0 / np.where(absx0 > 0.0, absx0, 1.0), 1.0)
        alpha = -sign * norm
        v = x.copy()
        v[:, 0] -= alpha
        vnorm2 = np.einsum("bm,bm->b", v.conj(), v).real
        live = vnorm2 > 0.0
        beta = np.where(live, 2.0 / np.where(live, vnorm2, 1.0), 0.0)

        w = np.einsum("bm,bmn->bn", v.conj(), h[:, j + 1 :, j:])
        h[:, j + 1 :, j:] -= beta[:, None, None] * v[:, :, None] * w[:, None, :]
        u = np.einsum("bnm,bm->bn", h[:, :, j + 1 :], v)
        h[:, :, j + 1 :] -= beta[:, None, None] * u[:, :, None] * v.conj()[:, None, :]

        h[:, j + 1, j] = np.where(live, alpha, x0)
        h[:, j + 2 :, j] = 0.0


def _givens(a: np.ndarray, bv: np.ndarray, apply_mask: np.ndarray):
    """Per-batch complex Givens pair (c real, s complex) zeroing bv."""
    nb = a.shape[0]
    c = np.ones(nb)
    s = np.zeros(nb, dtype=complex)
    absa = np.abs(a)
    absb = np.abs(bv)
    den = np.hypot(absa, absb)
    hit = apply_mask & (absb > 0.0)
    top = hit & (absa > 0.0)
    c[top] = absa[top] / den[top]
    s[top] = (a[top] / absa[top]) * bv[top].conj() / den[top]
    flip = hit & (absa == 0.0)
    c[flip] = 0.0
    s[flip] = bv[flip].conj() / absb[flip]
    return c, s


def _qr_eigvals_batch(h: np.ndarray) -> np.ndarray:
    """Shifted QR on a stack of upper Hessenberg matrices.

    Eigenvalues-only mode: updates are restricted to the union of the
    per-matrix active windows, and finished matrices are compacted out of
    the working set. The off-window blocks a matrix never reads may go
    stale; its own window arithmetic is unaffected, so results do not
    depend on batch composition.
    """
    nb, n, _ = h.shape
    if n == 1:
        return h[:, 0, 0:1].copy()

    result = np.empty((nb, n), dtype=complex)
    live = np.arange(nb)
    budget = _SWEEPS_PER_EIGENVALUE * n
    cols = np.arange(n)

    hi = np.full(nb, n - 1)
    stuck = np.zeros(nb, dtype=int)
    total = np.zeros(nb, dtype=int)

    while True:
        k = h.shape[0]
        rows = np.arange(k)
        diag_view = h.reshape(k, n * n)[:, :: n + 1]

        # Deflate converged eigenvalues off the bottom of each window.
        while True:
            act = hi > 0
            if not act.any():
                break
            up = np.maximum(hi - 1, 0)
            sub = np.abs(h[rows, hi, up])
            thr = _DEFLATION_FACTOR * (np.abs(h[rows, up, up]) + np.abs(h[rows, hi, hi]))
            small = act & (sub <= np.maximum(thr, _TINY))
            if not small.any():
                break
            h[rows[small], hi[small], hi[small] - 1] = 0.0
            hi[small] -= 1
            stuck[small] = 0

        active = hi > 0
        if not active.any():
            result[live] = diag_view
            return result

        # Compact the working set once enough matrices have finished.
        if active.sum() < 0.7 * k:
            done = ~active
            result[live[done]] = diag_view[done]
            h = np.ascontiguousarray(h[active])
            live = live[active]
            hi = hi[active]
            stuck = stuck[active]
            total = total[active]
            k = h.shape[0]
            rows = np.arange(k)
            diag_view = h.reshape(k, n * n)[:, :: n + 1]
            active = hi > 0

        # Zero every negligible in-window subdiagonal and split there.
        sub = np.abs(np.diagonal(h, offset=-1, axis1=1, axis2=2))
        dmag = np.abs(diag_view)
        thr = np.maximum(_DEFLATION_FACTOR * (dmag[:, :-1] + dmag[:, 1:]), _TINY)
        neg = (sub <= thr) & (cols[None, :-1] < hi[:, None])
        if neg.any():
            zb, zi = np.nonzero(neg)
            h[zb, zi + 1, zi] = 0.0
        lo = np.where(neg, cols[None, :-1], -1).max(axis=1) + 1

        total += 1
        stuck += 1
        if (total > budget).any():
            raise EigensolverError(
                f"QR iteration exceeded {budget} sweeps for "
                f"{int((total > budget).sum())} matrix/matrices of order {n}"
            )

        # Wilkinson shift from the trailing 2x2 of each window.
        up = hi - 1
        a = h[rows, up, up]
        bq = h[rows, up, hi]
        cq = h[rows, hi, up]
        d = h[rows, hi, hi]
        disc = np.sqrt(((a - d) * 0.5) ** 2 + bq * cq)
        mid = (a + d) * 0.5
        r1 = mid + disc
        r2 = mid - disc
        shift = np.where(np.abs(r1 - d) <= np.abs(r2 - d), r1, r2)
        exc = (stuck > 0) & (stuck % 10 == 0)
        if exc.any():
            shift = np.where(exc, d + 0.75 * np.abs(cq), shift)

        lo_min = int(lo.min())
        hi_max = int(hi.max())
        window = (cols[None, :] >= lo[:, None]) & (cols[None, :] <= hi[:, None])
        shift_cols = np.where(window, shift[:, None], 0.0)
        diag_view[...] = diag_view - shift_cols

        # QR factorization by Givens rotations, then RQ.
        cs = np.empty((n - 1, k))
        sn = np.empty((n - 1, k), dtype=complex)
        for i in range(lo_min, hi_max):
            rot = (lo <= i) & (i < hi)
            if not rot.any():
                cs[i] = 1.0
                sn[i] = 0.0
                continue
            c, s = _givens(h[:, i, i], h[:, i + 1, i], rot)
            cs[i] = c
            sn[i] = s
            r1v = h[:, i, i : hi_max + 1]
            r2v = h[:, i + 1, i : hi_max + 1]
            t1 = c[:, None] * r1v + s[:, None] * r2v
            t2 = -s.conj()[:, None] * r1v + c[:, None] * r2v
            h[:, i, i : hi_max + 1] = t1
            h[:, i + 1, i : hi_max + 1] = t2
            h[rows[rot], i + 1, i] = 0.0

        for i in range(lo_min, hi_max):
            c = cs[i]
            s = sn[i]
            m = min(i + 3, n)
            c1 = h[:, lo_min:m, i]
            c2 = h[:, lo_min:m, i + 1]
            t1 = c[:, None] * c1 + s.conj()[:, None] * c2
            t2 = -s[:, None] * c1 + c[:, None] * c2
            h[:, lo_min:m, i] = t1
            h[:, lo_min:m, i + 1] = t2

        diag_view[...] = diag_view + shift_cols


def eigenvalues_batch(matrices: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of square complex matrices.

    Args:
        matrices: array-like of shape (batch, n, n).

    Returns:
        (batch, n) complex array, eigenvalues in no particular order.

    Raises:
        EigensolverError: if any matrix fails to converge.
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

