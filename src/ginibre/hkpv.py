"""Sequential sampler for determinantal projection processes.

Points are drawn one at a time from conditional densities
p_i(x) = ||C v(x)||^2 / i, where v is the feature vector of the basis
eigenfunctions and the i rows of C are an orthonormal basis of the
orthogonal complement of the feature vectors at already-accepted points
(Hough, Krishnapur, Peres and Virag 2006, Alg. 18). C starts as the
identity and loses one row per accepted point, by one Householder
reflection applied in place as a single BLAS rank-1 update (zgeru). Each
conditional is sampled by rejection from the uniform law on the disk
under a precomputed sup bound. Proposals are evaluated in blocks, one
conditional_density call per block, and the block's first accepted
proposal is the point. The rest of the block is discarded; the draw
stays exact, as the point is the first acceptance in a sequence of iid
proposals and the next point draws fresh ones. The accepted point's
coordinates C w are the block's column at that point, so accepting it
evaluates no feature vector.

Every product with C goes through scipy's BLAS, on Fortran-ordered
transposes of the C-ordered arrays, so no operand is copied. numpy links
an OpenBLAS of its own; a sampler that alternated between the two
libraries woke two thread pools, and with 2 BLAS threads on 2 cores a
conditioned N = 300 draw took 2.5 s instead of 0.08 s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import zgemm, zgemv, zgeru

from .kernels import BasisSubset, feature_vector
from .records import RejectionDiagnostics

__all__ = [
    "OrthoState",
    "OrthogonalityError",
    "RejectionCapError",
    "feature_vector",
    "conditional_density",
    "rejection_step",
    "sample_projection_dpp",
    "sup_feature_norm_sq",
]

DEFAULT_MAX_PROPOSALS = 1_000_000

# A proposal block's feature matrix holds at most about this many entries.
_BLOCK_ELEMENTS = 1 << 16

# Radii of the sup envelope's first radial grid, and per refinement of
# its bracket: each refinement narrows the bracket 16-fold.
_SUP_GRID = 256
_REFINE_POINTS = 33


class OrthogonalityError(RuntimeError):
    """An accepted point's feature vector lies in the accepted span."""


class RejectionCapError(RuntimeError):
    """Rejection sampler exhausted its proposal budget."""


@dataclass
class OrthoState:
    """Mutable sampler state: basis, accepted points, complement rows.

    complement is the (i, n) matrix C whose orthonormal rows span the
    orthogonal complement of the accepted feature vectors, conjugated so
    that C @ v gives the coordinates of v's projection onto it. It starts
    as the identity and is a view of that buffer, one row shorter per
    accepted point.

    _block holds the points of the last conditional_density call and
    their coordinates C v, for add_point to reuse while C is unchanged.
    """

    basis: BasisSubset
    accepted: list = field(default_factory=list)
    complement: np.ndarray = field(init=False, repr=False)
    _block: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.complement = np.eye(self.basis.size, dtype=complex)

    @property
    def remaining(self) -> int:
        return self.basis.size - len(self.accepted)

    def add_point(self, z: complex) -> None:
        """Accept z and remove its feature vector w from the complement.

        With a = C w, the Householder reflection H = I - 2 u u* / (u* u),
        u = a - alpha e_1 and alpha = -phase(a_1) ||a|| (no cancellation),
        maps a to alpha e_1. Rows 2..i of H C are then orthonormal and
        orthogonal to w, and they are the new C; only they are updated,
        in place, by one rank-1 zgeru on their Fortran-ordered transpose.
        a is the column of the last conditional_density call whose point
        equals z; if no point does, it is computed from w.
        """
        c = self.complement
        a = self._coordinates(z)
        norm_a = np.linalg.norm(a)
        if norm_a == 0.0:
            raise OrthogonalityError("feature vector already in accepted span")
        abs_a1 = abs(a[0])
        u = a.copy()
        u[0] += (a[0] / abs_a1 if abs_a1 else 1.0) * norm_a
        if len(c) > 1:
            # c[1:] -= outer(a[1:] 2 / (u* u), u* C), with 2 / (u* u) =
            # 1 / (||a|| (||a|| + |a_1|)); the C-ordered rows c[1:] are the
            # columns of a Fortran array, which zgeru updates without a copy
            zgeru(-1.0, zgemv(1.0, c.T, u.conj()), a[1:] / (norm_a * (norm_a + abs_a1)),
                  a=c[1:].T, overwrite_a=1)
        self.complement = c[1:]
        self.accepted.append(complex(z))

    def _coordinates(self, z: complex) -> np.ndarray:
        """C w(z): the column of the last conditional_density call whose
        point equals z, else computed. The record is dropped either way,
        as C is about to change."""
        block, self._block = self._block, None
        if block is not None:
            points, cv = block
            hit = np.flatnonzero(points == z)
            if hit.size:
                return cv[:, hit[0]]
        return zgemv(1.0, self.complement.T, feature_vector(self.basis, z), trans=1)


def sup_feature_norm_sq(basis: BasisSubset) -> float:
    """sup_z ||v(z)||^2 over the basis disk.

    ||v||^2 is radial for these bases. A radial grid of _SUP_GRID points
    brackets the maximum; the bracket around the best point is then
    refined with _REFINE_POINTS evenly spaced radii per evaluation until
    it is narrower than 1e-9 R. Returns the largest value evaluated.
    """
    radii = np.linspace(0.0, basis.radius, _SUP_GRID)
    best = 0.0
    while True:
        vals = _feature_norm_sq_radial(basis, radii)
        k = int(np.argmax(vals))
        best = max(best, float(vals[k]))
        lo, hi = radii[max(k - 1, 0)], radii[min(k + 1, len(radii) - 1)]
        if hi - lo < 1e-9 * basis.radius:
            return best
        radii = np.linspace(lo, hi, _REFINE_POINTS)


def _feature_norm_sq_radial(basis: BasisSubset, radii: np.ndarray) -> np.ndarray:
    v = feature_vector(basis, radii.astype(complex))
    return np.einsum("nm,nm->m", v.conj(), v).real


def conditional_density(state: OrthoState, z):
    """Density p_i at z (or an array of z); i = points still to draw.

    Leaves the points and their coordinates C v on the state, for
    add_point to take the accepted point's column from.
    """
    i = state.remaining
    if i < 1:
        raise ValueError("no points remain to be drawn")
    v = feature_vector(state.basis, z)
    cv = zgemm(1.0, (v[:, None] if v.ndim == 1 else v).T, state.complement.T).T
    state._block = (np.asarray(z).ravel(), cv)
    p = np.einsum("jm,jm->m", cv.conj(), cv).real / i
    return float(p[0]) if v.ndim == 1 else p


def rejection_step(state: OrthoState, rng: np.random.Generator,
                   envelope: float,
                   diagnostics: RejectionDiagnostics | None = None,
                   max_proposals: int = DEFAULT_MAX_PROPOSALS) -> complex:
    """Exact draw from p_i by rejection from the uniform law on the disk.

    Each proposal reads three doubles (radius, angle, u) and is accepted
    when u * envelope < p_i(z). A block of about 1.5x the expected number
    of proposals is drawn and evaluated with one conditional_density call,
    and its first accepted proposal is returned; the proposals after it
    are discarded, their doubles consumed. diagnostics counts the
    proposals up to and including the accepted one.
    """
    radius = state.basis.radius
    block = min(math.ceil(1.5 * envelope * math.pi * radius * radius),
                _BLOCK_ELEMENTS // state.basis.size)
    block = max(block, 1)
    tried = 0
    while tried < max_proposals:
        size = min(block, max_proposals - tried)
        u_radius, u_angle, u = rng.random(3 * size).reshape(size, 3).T
        r = radius * np.sqrt(u_radius)
        theta = -math.pi + 2.0 * math.pi * u_angle
        z = r * np.cos(theta) + 1j * (r * np.sin(theta))
        accept = u * envelope < conditional_density(state, z)
        k = int(accept.argmax())
        if accept[k]:
            if diagnostics is not None:
                diagnostics.record_step(tried + k + 1)
            return complex(z[k])
        tried += size
    raise RejectionCapError(
        f"no acceptance after {max_proposals} proposals (envelope={envelope})"
    )


def sample_projection_dpp(basis: BasisSubset, rng: np.random.Generator,
                          sup_norm_sq: float,
                          diagnostics: RejectionDiagnostics | None = None,
                          max_proposals: int = DEFAULT_MAX_PROPOSALS) -> np.ndarray:
    """Draw the n-point projection process defined by the basis.

    sup_norm_sq is sup_feature_norm_sq(basis), computed once per basis by
    the caller. Returns exactly basis.size points (complex array,
    acceptance order).
    """
    if basis.size == 0:
        return np.empty(0, dtype=complex)
    state = OrthoState(basis=basis)
    while state.remaining > 0:
        # p_i <= ||v||^2 / i pointwise, so sup ||v||^2 / i bounds p_i
        envelope = sup_norm_sq / state.remaining
        z = rejection_step(state, rng, envelope, diagnostics, max_proposals)
        state.add_point(z)
    return np.array(state.accepted, dtype=complex)
