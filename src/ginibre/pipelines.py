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
amortize setup across batch draws. One driver, _batch, runs the batches
of all three routes, in this process or split over worker processes;
each sample i of a batch uses the derived stream (seed, i), so batches
are reproducible point for point for any worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from . import eigen, hkpv, matrix_sampler, point_count
from .kernels import BasisSubset, SpectrumProfile, conditioned_basis, spectrum_profile
from .records import RejectionDiagnostics, SampleSet
from .streams import child_seed

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

# Matrices per eigen.eigenvalues_batch call on the matrix route.
MATRIX_CHUNK = 512

# Sequential-sampler batches smaller than this run in one process.
SEQUENTIAL_FAN_OUT_MIN = 64


class GinibreDiskSampler:
    """Ginibre process on B_R via spectrum thinning + sequential sampling."""

    def __init__(self, radius: float, max_proposals: int = hkpv.DEFAULT_MAX_PROPOSALS):
        self.profile: SpectrumProfile = spectrum_profile(radius)
        self.radius = self.profile.radius
        self.max_proposals = max_proposals
        self.table = point_count.count_table(self.profile)
        self._sup_cache: dict[tuple[int, ...], float] = {}

    def sample(self, rng: np.random.Generator, seed: int = -1) -> SampleSet:
        diagnostics = RejectionDiagnostics()
        top = point_count.sample_top_index(self.profile, rng, self.table)
        if top is None:
            points = np.empty(0, dtype=complex)
        else:
            draw = point_count.sample_indicators(self.profile, top, rng)
            basis = BasisSubset(self.profile, draw.selected)
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
            params={"R": self.radius},
            seed=seed, diagnostics=diagnostics,
        )

    def sample_batch(self, seed: int, count: int, offset: int = 0,
                     workers: int = 1) -> list[SampleSet]:
        return _batch(partial(_draws, self, seed), count, offset, workers,
                      SEQUENTIAL_FAN_OUT_MIN)


class ConditionedSampler:
    """Rank-N process conditioned to N points on B_a (homothetic output)."""

    def __init__(self, n_points: int, target_radius: float | None = None,
                 max_proposals: int = hkpv.DEFAULT_MAX_PROPOSALS):
        if n_points < 1:
            raise ValueError("point count must be >= 1")
        self.n_points = int(n_points)
        root_n = math.sqrt(self.n_points)
        self.target_radius = root_n if target_radius is None else float(target_radius)
        if not 0.0 < self.target_radius < math.inf:
            raise ValueError(f"target radius must be positive and finite, got {target_radius}")
        self.max_proposals = max_proposals
        self.basis = conditioned_basis(self.n_points)
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
        return _batch(partial(_draws, self, seed), count, offset, workers,
                      SEQUENTIAL_FAN_OUT_MIN)


def _batch(span, count: int, offset: int, workers: int,
           fan_out_min: int) -> list[SampleSet]:
    """Draws offset .. offset+count-1, as span(size, start) returns them.

    With one worker, or fewer than fan_out_min draws, span runs once in
    this process. Otherwise the draws are split into one contiguous,
    in-order part per worker process; span must then be picklable.
    """
    if workers <= 1 or count < fan_out_min:
        return span(count, offset)
    parts = min(workers, count)
    base, extra = divmod(count, parts)
    sizes = [base + (p < extra) for p in range(parts)]
    starts = [offset + p * base + min(p, extra) for p in range(parts)]
    with ProcessPoolExecutor(max_workers=parts) as pool:
        return [s for part in pool.map(span, sizes, starts) for s in part]


def _draws(sampler, seed: int, size: int, start: int) -> list[SampleSet]:
    """Draws start .. start+size-1 of a sequential sampler.

    Workers receive the configured sampler itself, so its proposal cap
    holds for any worker count.
    """
    return [_stream_sample(sampler, seed, start + i) for i in range(size)]


def _stream_sample(sampler, seed: int, index: int) -> SampleSet:
    """sampler.sample on stream (seed, index), derived once and recorded."""
    child = child_seed(seed, index)
    return sampler.sample(np.random.default_rng(child), seed=child)


def sample_ginibre_on_disk(radius: float, seed: int) -> SampleSet:
    """One draw of the Ginibre process restricted to B_R."""
    return _stream_sample(GinibreDiskSampler(radius), seed, 0)


def sample_conditioned_truncated(n_points: int, target_radius: float, seed: int) -> SampleSet:
    """One draw of the conditioned process: exactly N points inside B_a."""
    return _stream_sample(ConditionedSampler(n_points, target_radius), seed, 0)


def _matrices(n_points: int, seed: int, entry_scale: float,
              size: int, start: int) -> list[SampleSet]:
    """Matrix-route draws start .. start+size-1, MATRIX_CHUNK per eigen call."""
    out: list[SampleSet] = []
    stop = start + size
    for first in range(start, stop, MATRIX_CHUNK):
        children = [child_seed(seed, i) for i in range(first, min(first + MATRIX_CHUNK, stop))]
        mats = np.stack([
            matrix_sampler.sample_ginibre_matrix(
                n_points, np.random.default_rng(child), entry_scale)
            for child in children
        ])
        out += [SampleSet(points=points, method="matrix", params={"N": n_points}, seed=child)
                for points, child in zip(eigen.eigenvalues_batch(mats), children)]
    return out


def sample_matrix_batch(n_points: int, seed: int, count: int, offset: int = 0,
                        entry_scale: float = 1.0, workers: int = 1) -> list[SampleSet]:
    """Matrix-route batch; sample i always uses stream (seed, offset + i),
    so the result is byte-identical for any worker count."""
    return _batch(partial(_matrices, n_points, seed, entry_scale), count, offset,
                  workers, 2 * MATRIX_CHUNK)


def acceptance_probability_all_in_disk(n_points: int) -> float:
    """P(all N matrix-route points fall in B_sqrt(N)): prod_n P(n+1, N)."""
    if n_points < 1:
        raise ValueError("point count must be >= 1")
    prof = spectrum_profile(math.sqrt(n_points), rank=n_points)
    return math.exp(prof.log_eigenvalues.sum())


def conditioned_by_rejection(n_points: int, rng: np.random.Generator,
                             seed: int = -1) -> SampleSet:
    """Exact conditioned draw by retrying the matrix route.

    Reference oracle for the conditioned pipeline at small N: redraw until
    all N eigenvalues land inside B_sqrt(N). Expected retries grow like
    1 / acceptance_probability_all_in_disk(N), hence the rank cap.
    """
    if n_points > 12:
        raise ValueError("rejection conditioning is an oracle; use N <= 12")
    root_n = math.sqrt(n_points)
    for attempt in range(1, REJECTION_RETRY_CAP + 1):
        mat = matrix_sampler.sample_ginibre_matrix(n_points, rng)
        pts = eigen.eigenvalues(mat)
        if np.all(np.abs(pts) <= root_n):
            return SampleSet(
                points=pts, method="conditioned",
                params={"N": n_points, "a": root_n, "route": "matrix-rejection"},
                seed=seed, notes={"retries": attempt},
            )
    raise hkpv.RejectionCapError(
        f"no all-inside draw after {REJECTION_RETRY_CAP} attempts at N={n_points}"
    )
