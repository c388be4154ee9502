"""End-to-end sampling pipelines for the three simulation methods.

matrix            rank-N truncated process as random-matrix eigenvalues;
                  exactly N points, unbounded support.
projected_disk    the Ginibre process restricted to a disk B_R: Bernoulli
                  spectrum thinning (a random eigenfunction subset), then
                  the sequential projection sampler; random point count.
conditioned       the rank-N process conditioned to carry all N points on
                  the disk: rank-N projection kernel on B_sqrt(N), sampled
                  sequentially, then mapped to the target disk B_a by the
                  homothety z -> (a/sqrt(N)) z.

Samplers with precomputed state (spectrum tables, rejection envelopes)
amortize setup across batch draws; each sample i of a batch uses the
derived stream (seed, i), so batches are reproducible point for point no
matter how they are chunked or parallelized.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from . import eigen, hkpv, matrix_sampler, point_count
from .kernels import BasisSubset, SpectrumProfile, spectrum_profile
from .records import RejectionDiagnostics, SampleSet
from .specfun import log_regularized_lower_gamma
from .streams import child_seed, stream_rng

__all__ = [
    "GinibreDiskSampler",
    "ConditionedSampler",
    "sample_ginibre_on_disk",
    "sample_conditioned_truncated",
    "sample_matrix_batch",
    "acceptance_probability_all_in_disk",
    "conditioned_by_rejection",
]

REJECTION_RETRY_CAP = 1_000_000

# Entries of GinibreDiskSampler's sup-envelope cache, one per distinct
# index set; the oldest entry is evicted first.
SUP_CACHE_SIZE = 4096


class GinibreDiskSampler:
    """Ginibre process on B_R via spectrum thinning + sequential sampling."""

    def __init__(self, radius: float, epsilon: float = 1e-12,
                 max_proposals: int = hkpv.DEFAULT_MAX_PROPOSALS):
        if radius < 0.0:
            raise ValueError("radius must be nonnegative")
        self.radius = float(radius)
        self.epsilon = float(epsilon)
        self.max_proposals = max_proposals
        self.profile: SpectrumProfile = spectrum_profile(radius, epsilon)
        self.table = point_count.count_table(self.profile)
        self._sup_cache: dict[tuple[int, ...], float] = {}

    def sample(self, rng: np.random.Generator, seed: int = -1) -> SampleSet:
        diagnostics = RejectionDiagnostics()
        top = point_count.sample_top_index(self.profile, rng, self.table)
        if top is None:
            points = np.empty(0, dtype=complex)
        else:
            draw = point_count.sample_indicators(self.profile, top, rng)
            basis = BasisSubset(radius=self.radius, indices=draw.selected)
            sup = self._sup_cache.get(draw.selected)
            if sup is None:
                sup = hkpv.sup_feature_norm_sq(basis)
                if len(self._sup_cache) >= SUP_CACHE_SIZE:
                    del self._sup_cache[next(iter(self._sup_cache))]
                self._sup_cache[draw.selected] = sup
            points = hkpv.sample_projection_dpp(
                basis, rng, diagnostics=diagnostics,
                max_proposals=self.max_proposals,
                sup_norm_sq=sup,
            )
        return SampleSet(
            points=points, method="projected_disk",
            params={"R": self.radius, "epsilon": self.epsilon},
            seed=seed, diagnostics=diagnostics,
        )

    def sample_batch(self, seed: int, count: int, offset: int = 0,
                     workers: int = 1) -> list[SampleSet]:
        return _sequential_batch(self, seed, count, offset, workers)


class ConditionedSampler:
    """Rank-N process conditioned to N points on B_a (homothetic output)."""

    def __init__(self, n_points: int, target_radius: float | None = None,
                 max_proposals: int = hkpv.DEFAULT_MAX_PROPOSALS):
        if n_points < 1:
            raise ValueError("point count must be >= 1")
        self.n_points = int(n_points)
        root_n = math.sqrt(self.n_points)
        self.target_radius = root_n if target_radius is None else float(target_radius)
        if self.target_radius <= 0.0:
            raise ValueError("target radius must be positive")
        self.max_proposals = max_proposals
        self.basis = BasisSubset(radius=root_n, indices=tuple(range(self.n_points)))
        self.sup_norm_sq = hkpv.sup_feature_norm_sq(self.basis)
        self.scale_out = self.target_radius / root_n

    def sample(self, rng: np.random.Generator, seed: int = -1) -> SampleSet:
        diagnostics = RejectionDiagnostics()
        raw = hkpv.sample_projection_dpp(
            self.basis, rng, diagnostics=diagnostics,
            max_proposals=self.max_proposals,
            sup_norm_sq=self.sup_norm_sq,
        )
        return SampleSet(
            points=raw * self.scale_out, method="conditioned",
            params={"N": self.n_points, "a": self.target_radius},
            seed=seed, diagnostics=diagnostics,
        )

    def sample_batch(self, seed: int, count: int, offset: int = 0,
                     workers: int = 1) -> list[SampleSet]:
        return _sequential_batch(self, seed, count, offset, workers)


def _sequential_batch(sampler, seed: int, count: int, offset: int,
                      workers: int = 1) -> list[SampleSet]:
    """Draws offset .. offset+count-1 of a sequential sampler.

    Workers receive the configured sampler itself, so its proposal cap
    and epsilon hold for any worker count.
    """
    if workers > 1 and count >= 64:
        return _fan_out(partial(_sequential_batch, sampler, seed), count, offset, workers)
    return [
        sampler.sample(stream_rng(seed, offset + i), seed=child_seed(seed, offset + i))
        for i in range(count)
    ]


def sample_ginibre_on_disk(radius: float, seed: int, epsilon: float = 1e-12) -> SampleSet:
    """One draw of the Ginibre process restricted to B_R."""
    sampler = GinibreDiskSampler(radius, epsilon)
    return sampler.sample(stream_rng(seed, 0), seed=child_seed(seed, 0))


def sample_conditioned_truncated(n_points: int, target_radius: float, seed: int) -> SampleSet:
    """One draw of the conditioned process: exactly N points inside B_a."""
    sampler = ConditionedSampler(n_points, target_radius)
    return sampler.sample(stream_rng(seed, 0), seed=child_seed(seed, 0))


def _matrix_batch_serial(n_points: int, seed: int, count: int, offset: int,
                         chunk: int, entry_scale: float) -> list[SampleSet]:
    out: list[SampleSet] = []
    for start in range(0, count, chunk):
        size = min(chunk, count - start)
        mats = np.stack([
            matrix_sampler.sample_ginibre_matrix(
                n_points, stream_rng(seed, offset + start + i), entry_scale)
            for i in range(size)
        ])
        eig = eigen.eigenvalues_batch(mats)
        for i in range(size):
            out.append(SampleSet(
                points=eig[i], method="matrix", params={"N": n_points},
                seed=child_seed(seed, offset + start + i),
            ))
    return out


def sample_matrix_batch(n_points: int, seed: int, count: int, offset: int = 0,
                        chunk: int = 512, entry_scale: float = 1.0,
                        workers: int = 1) -> list[SampleSet]:
    """Matrix-route batch; sample i always uses stream (seed, offset + i),
    so the result is byte-identical for any chunk size or worker count."""
    if workers > 1 and count >= 2 * chunk:
        span = partial(_matrix_batch_serial, n_points, seed,
                       chunk=chunk, entry_scale=entry_scale)
        return _fan_out(span, count, offset, workers)
    return _matrix_batch_serial(n_points, seed, count, offset, chunk, entry_scale)


def _fan_out(span, count: int, offset: int, workers: int) -> list[SampleSet]:
    """span(size, start) over one contiguous span per worker, in order.

    span must be picklable; it runs in a worker process and returns the
    samples of indices start .. start+size-1.
    """
    spans = _split_spans(count, workers)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(span, [size for _, size in spans],
                         [offset + start for start, _ in spans])
        return [s for part in parts for s in part]


def _split_spans(count: int, parts: int) -> list[tuple[int, int]]:
    """Contiguous (start, size) spans covering range(count)."""
    base = count // parts
    rem = count % parts
    spans = []
    start = 0
    for p in range(parts):
        size = base + (1 if p < rem else 0)
        if size:
            spans.append((start, size))
        start += size
    return spans


def acceptance_probability_all_in_disk(n_points: int) -> float:
    """P(all N matrix-route points fall in B_sqrt(N)): prod_n P(n+1, N)."""
    if n_points < 1:
        raise ValueError("point count must be >= 1")
    total = log_regularized_lower_gamma(np.arange(1, n_points + 1), float(n_points)).sum()
    return math.exp(total)


def conditioned_by_rejection(n_points: int, rng: np.random.Generator,
                             seed: int = -1,
                             retry_cap: int = REJECTION_RETRY_CAP) -> SampleSet:
    """Exact conditioned draw by retrying the matrix route.

    Reference oracle for the conditioned pipeline at small N: redraw until
    all N eigenvalues land inside B_sqrt(N). Expected retries grow like
    1 / acceptance_probability_all_in_disk(N), hence the rank cap.
    """
    if n_points > 12:
        raise ValueError("rejection conditioning is an oracle; use N <= 12")
    root_n = math.sqrt(n_points)
    for attempt in range(1, retry_cap + 1):
        mat = matrix_sampler.sample_ginibre_matrix(n_points, rng)
        pts = eigen.eigenvalues(mat)
        if np.all(np.abs(pts) <= root_n):
            return SampleSet(
                points=pts, method="conditioned",
                params={"N": n_points, "a": root_n, "route": "matrix-rejection"},
                seed=seed, notes={"retries": attempt},
            )
    raise hkpv.RejectionCapError(
        f"no all-inside draw after {retry_cap} attempts at N={n_points}"
    )
