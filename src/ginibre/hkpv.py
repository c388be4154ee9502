"""Sequential sampler for determinantal projection processes.

Points are drawn one at a time from conditional densities
p_i(x) = (||v(x)||^2 - sum_j |e_j* v(x)|^2) / i, where v is the feature
vector of the basis eigenfunctions and the e_j are an orthonormal basis
of the span of the feature vectors at already-accepted points, maintained
by classical Gram-Schmidt applied twice. Each conditional is sampled by
rejection from the uniform law on the disk under a precomputed sup bound.
Proposals are evaluated in blocks, one conditional_density call per
block, while the random stream is consumed exactly as by one proposal at
a time.
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

# p_i values in [-HARD_FLOOR, 0) are rounding and are clamped to 0; below
# -HARD_FLOOR the orthonormal set has degraded and OrthogonalityError stops
# the run.
_HARD_FLOOR = 1e-9

# A proposal block's feature matrix holds at most about this many entries.
_BLOCK_ELEMENTS = 1 << 16


class OrthogonalityError(RuntimeError):
    """Conditional density went negative beyond rounding tolerance."""


class RejectionCapError(RuntimeError):
    """Rejection sampler exhausted its proposal budget."""


@dataclass
class OrthoState:
    """Mutable sampler state: basis, accepted points, orthonormal vectors.

    conj_rows is a preallocated (n, n) buffer whose first j rows are the
    conjugated orthonormal vectors conj(e_1)..conj(e_j): conj_rows[:j] @ v
    gives the coefficients e_k* v in one matrix product.
    """

    basis: BasisSubset
    accepted: list = field(default_factory=list)
    conj_rows: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.conj_rows = np.zeros((self.basis.size, self.basis.size), dtype=complex)

    @property
    def remaining(self) -> int:
        return self.basis.size - len(self.accepted)

    @property
    def ortho(self) -> np.ndarray:
        """The (j, n) orthonormal rows e_1..e_j, as a new array."""
        return self.conj_rows[:len(self.accepted)].conj()

    @ortho.setter
    def ortho(self, rows: np.ndarray) -> None:
        self.conj_rows[:len(rows)] = np.conj(rows)

    def add_point(self, z: complex) -> None:
        """Accept z and extend the orthonormal set with its feature vector.

        Classical Gram-Schmidt applied twice: each pass removes the
        projection on the accepted span with two matrix-vector products,
        and the second pass restores orthogonality to working precision
        (a single pass loses it by n ~ 100).
        """
        j = len(self.accepted)
        rows = self.conj_rows[:j]
        w = feature_vector(self.basis, z)
        for _ in range(2):
            # sum_k (e_k* w) e_k, with e_k = conj(rows[k])
            w = w - ((rows @ w).conj() @ rows).conj()
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            raise OrthogonalityError("feature vector already in accepted span")
        self.conj_rows[j] = w.conj() / norm_w
        self.accepted.append(complex(z))


def sup_feature_norm_sq(basis: BasisSubset, grid: int = 256) -> float:
    """sup_z ||v(z)||^2 over the basis disk.

    ||v||^2 is radial for these bases; a dense radial grid brackets the
    maximum and golden-section search refines it.
    """
    radii = np.linspace(0.0, basis.radius, grid)
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
        if b - a < 1e-12 * basis.radius:
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
    if state.accepted:
        proj = state.conj_rows[:len(state.accepted)] @ vv
        norm2 = norm2 - np.einsum("jm,jm->m", proj.conj(), proj).real
    p = norm2 / i
    low = p.min()
    if low < -_HARD_FLOOR:
        raise OrthogonalityError(
            f"conditional density {low} below -{_HARD_FLOOR}: orthogonality lost"
        )
    p = np.maximum(p, 0.0)
    return float(p[0]) if scalar else p


def envelope_bound(state: OrthoState, sup_norm_sq: float) -> float:
    """Certified constant bound M_i >= sup p_i for the current step.

    p_i <= ||v||^2 / i pointwise, so the precomputed radial supremum of
    ||v||^2 divided by the number of remaining points is an upper bound.
    """
    return sup_norm_sq / state.remaining


def _disk_point(radius: float, u_radius: float, u_angle: float) -> complex:
    """Uniform point on the disk from two uniforms, as one proposal draws it."""
    r = radius * math.sqrt(u_radius)
    theta = -math.pi + 2.0 * math.pi * u_angle
    return complex(r * math.cos(theta), r * math.sin(theta))


def rejection_step(state: OrthoState, rng: np.random.Generator,
                   envelope: float,
                   diagnostics: RejectionDiagnostics | None = None,
                   max_proposals: int = DEFAULT_MAX_PROPOSALS) -> complex:
    """Exact draw from p_i by rejection from the uniform law on the disk.

    Each proposal reads three doubles (radius, angle, u) and is accepted
    when u * envelope < p_i(z). A block of about 1.5x the expected number
    of proposals is drawn and evaluated with one conditional_density call;
    the first acceptance wins, and the stream is rewound and redrawn up to
    it, so it ends where a one-at-a-time loop would leave it. A density
    below the hard floor anywhere in the block raises OrthogonalityError,
    also past the accepted proposal.
    """
    radius = state.basis.radius
    block = min(math.ceil(1.5 * envelope * math.pi * radius * radius),
                _BLOCK_ELEMENTS // state.basis.size)
    block = max(block, 1)
    tried = 0
    while tried < max_proposals:
        size = min(block, max_proposals - tried)
        saved = rng.bit_generator.state
        u_radius, u_angle, u = rng.random(3 * size).reshape(size, 3).T
        r = radius * np.sqrt(u_radius)
        theta = -math.pi + 2.0 * math.pi * u_angle
        z = r * np.cos(theta) + 1j * (r * np.sin(theta))
        accept = u * envelope < conditional_density(state, z)
        k = int(accept.argmax())
        if accept[k]:
            rng.bit_generator.state = saved
            rng.random(3 * (k + 1))
            if diagnostics is not None:
                diagnostics.record_step(tried + k + 1)
            return _disk_point(radius, float(u_radius[k]), float(u_angle[k]))
        tried += size
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
