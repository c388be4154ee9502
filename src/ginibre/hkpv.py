"""Sequential sampler for determinantal projection processes.

Points are drawn one at a time from conditional densities
p_i(x) = (||v(x)||^2 - sum_j |e_j* v(x)|^2) / i, where v is the feature
vector of the basis eigenfunctions and the e_j are an orthonormal basis
of the span of the feature vectors at already-accepted points, maintained
by modified Gram-Schmidt. Each conditional is sampled by rejection from
the uniform law on the disk under a precomputed sup bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import BasisSubset, feature_vector
from .records import RejectionDiagnostics

__all__ = [
    "OrthoState",
    "OrthogonalityError",
    "RejectionCapError",
    "feature_vector",
    "conditional_density",
    "envelope_bound",
    "rejection_step",
    "sample_projection_dpp",
    "sup_feature_norm_sq",
]

DEFAULT_MAX_PROPOSALS = 1_000_000

# p_i values in [-CLAMP_FLOOR, 0) are rounding; below -HARD_FLOOR means the
# orthonormal set has degraded and the run must not continue silently.
_CLAMP_FLOOR = 1e-12
_HARD_FLOOR = 1e-9


class OrthogonalityError(RuntimeError):
    """Conditional density went negative beyond rounding tolerance."""


class RejectionCapError(RuntimeError):
    """Rejection sampler exhausted its proposal budget."""


@dataclass
class OrthoState:
    """Mutable sampler state: basis, accepted points, orthonormal vectors."""

    basis: BasisSubset
    accepted: list = field(default_factory=list)
    ortho: np.ndarray = None  # (j, n) rows e_1..e_j

    def __post_init__(self) -> None:
        if self.ortho is None:
            self.ortho = np.zeros((0, self.basis.size), dtype=complex)

    @property
    def remaining(self) -> int:
        return self.basis.size - len(self.accepted)

    def add_point(self, z: complex) -> None:
        """Accept z and extend the orthonormal set with its feature vector.

        Modified Gram-Schmidt with one re-orthogonalization pass whenever
        the norm drops by more than a factor of 10 (classical single-pass
        GS loses orthogonality by n ~ 100).
        """
        v = feature_vector(self.basis, z)
        w = v.copy()
        for e in self.ortho:
            w -= (e.conj() @ w) * e
        norm_v = np.linalg.norm(v)
        norm_w = np.linalg.norm(w)
        if norm_w < 0.1 * norm_v:
            for e in self.ortho:
                w -= (e.conj() @ w) * e
            norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            raise OrthogonalityError("feature vector already in accepted span")
        self.ortho = np.vstack([self.ortho, w / norm_w])
        self.accepted.append(complex(z))


def sup_feature_norm_sq(basis: BasisSubset, grid: int = 256) -> float:
    """sup_z ||v(z)||^2 over the basis disk.

    ||v||^2 is radial for these bases; a dense radial grid brackets the
    maximum and golden-section search refines it.
    """
    radii = np.linspace(0.0, basis.disk_radius, grid)
    vals = _feature_norm_sq_radial(basis, radii)
    k = int(np.argmax(vals))
    lo = radii[max(k - 1, 0)]
    hi = radii[min(k + 1, grid - 1)]
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - phi * (b - a)
    d = a + phi * (b - a)
    fc = _feature_norm_sq_radial(basis, np.array([c]))[0]
    fd = _feature_norm_sq_radial(basis, np.array([d]))[0]
    for _ in range(60):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - phi * (b - a)
            fc = _feature_norm_sq_radial(basis, np.array([c]))[0]
        else:
            a, c, fc = c, d, fd
            d = a + phi * (b - a)
            fd = _feature_norm_sq_radial(basis, np.array([d]))[0]
        if b - a < 1e-12 * basis.disk_radius:
            break
    best = max(float(vals[k]), fc, fd)
    return best


def _feature_norm_sq_radial(basis: BasisSubset, radii: np.ndarray) -> np.ndarray:
    v = feature_vector(basis, radii.astype(complex))
    return np.einsum("nm,nm->m", v.conj(), v).real


def conditional_density(state: OrthoState, z):
    """Density p_i at z (or an array of z); i = points still to draw."""
    i = state.remaining
    if i < 1:
        raise ValueError("no points remain to be drawn")
    v = feature_vector(state.basis, z)
    scalar = v.ndim == 1
    vv = v[:, None] if scalar else v
    norm2 = np.einsum("nm,nm->m", vv.conj(), vv).real
    if len(state.ortho):
        proj = state.ortho.conj() @ vv
        norm2 = norm2 - np.einsum("jm,jm->m", proj.conj(), proj).real
    p = norm2 / i
    low = p.min()
    if low < -_HARD_FLOOR:
        raise OrthogonalityError(
            f"conditional density {low} below -{_HARD_FLOOR}: orthogonality lost"
        )
    p = np.maximum(p, 0.0)
    return float(p[0]) if scalar else p


def envelope_bound(state: OrthoState, sup_norm_sq: float | None = None) -> float:
    """Certified constant bound M_i >= sup p_i for the current step.

    p_i <= ||v||^2 / i pointwise, so the precomputed radial supremum of
    ||v||^2 divided by the number of remaining points is an upper bound.
    """
    if sup_norm_sq is None:
        sup_norm_sq = sup_feature_norm_sq(state.basis)
    return sup_norm_sq / state.remaining


def _uniform_disk(rng: np.random.Generator, radius: float) -> complex:
    r = radius * math.sqrt(rng.random())
    theta = rng.uniform(-math.pi, math.pi)
    return complex(r * math.cos(theta), r * math.sin(theta))


def rejection_step(state: OrthoState, rng: np.random.Generator,
                   envelope: float,
                   diagnostics: RejectionDiagnostics | None = None,
                   max_proposals: int = DEFAULT_MAX_PROPOSALS) -> complex:
    """Exact draw from p_i by rejection from the uniform law on the disk."""
    radius = state.basis.disk_radius
    for attempt in range(1, max_proposals + 1):
        z = _uniform_disk(rng, radius)
        u = rng.random() * envelope
        if u < conditional_density(state, z):
            if diagnostics is not None:
                diagnostics.record_step(attempt)
            return z
    raise RejectionCapError(
        f"no acceptance after {max_proposals} proposals (envelope={envelope})"
    )


def sample_projection_dpp(basis: BasisSubset, rng: np.random.Generator,
                          diagnostics: RejectionDiagnostics | None = None,
                          max_proposals: int = DEFAULT_MAX_PROPOSALS,
                          sup_norm_sq: float | None = None) -> np.ndarray:
    """Draw the n-point projection process defined by the basis.

    Returns exactly basis.size points (complex array, acceptance order).
    """
    if basis.size == 0:
        return np.empty(0, dtype=complex)
    if sup_norm_sq is None:
        sup_norm_sq = sup_feature_norm_sq(basis)
    state = OrthoState(basis=basis)
    while state.remaining > 0:
        envelope = envelope_bound(state, sup_norm_sq)
        z = rejection_step(state, rng, envelope, diagnostics, max_proposals)
        state.add_point(z)
    return np.array(state.accepted, dtype=complex)
