"""Random point count of the Ginibre process restricted to a disk.

The count is a sum of independent Bernoulli(lambda_n) indicators over the
disk spectrum. Sampling goes through the top occupied index
T = sup{n : B_n = 1}: draw T by inversion of its explicit CDF, then the
lower indicators conditionally (they are independent of T), with B_T = 1
forced. The zero-point outcome ("no index occupied") is represented
explicitly as None rather than folded into T = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import SpectrumProfile

__all__ = ["IndicatorDraw", "CountTable", "count_table", "count_cdf",
           "sample_top_index", "sample_indicators"]


@dataclass(frozen=True)
class IndicatorDraw:
    """Outcome of one Bernoulli-thinning draw.

    top_index is the realized T; indicators holds B_0..B_{T-1}; selected
    is the occupied index set {i < T : B_i = 1} together with T itself
    (B_T = 1 almost surely).
    """

    top_index: int
    indicators: np.ndarray
    selected: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.selected) < 1 or self.selected[-1] != self.top_index:
            raise ValueError("selected must end with the top index")


@dataclass(frozen=True)
class CountTable:
    """Precomputed law of the top occupied index T.

    pmf[n] = P(T = n) = lambda_n prod_{i>n}(1 - lambda_i) over the
    profile's table; hole_prob = prod_n (1 - lambda_n) is the mass of "no
    index occupied". Whatever rounding leaves of 1 - hole_prob - sum(pmf)
    is folded into the last table entry and reported as leftover_mass.
    """

    hole_prob: float
    pmf: np.ndarray
    cumulative: np.ndarray
    leftover_mass: float


def count_table(profile: SpectrumProfile) -> CountTable:
    log_q = profile.log_one_minus
    # suffix[n] = sum_{i>n} log(1-lambda_i)
    suffix = np.concatenate((np.cumsum(log_q[::-1])[::-1][1:], [0.0]))
    hole = math.exp(profile.log_hole_probability())
    pmf = np.exp(profile.log_eigenvalues + suffix)
    leftover = max(0.0, 1.0 - hole - float(pmf.sum()))
    if len(pmf):
        pmf = pmf.copy()
        pmf[-1] += leftover
    cumulative = np.cumsum(pmf)
    return CountTable(hole_prob=hole, pmf=pmf, cumulative=cumulative,
                      leftover_mass=leftover)


def count_cdf(profile: SpectrumProfile, t: int, table: CountTable | None = None) -> float:
    """F(t) = P(T <= t); tends to 1 - hole_prob, the hole mass excluded."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    if table is None:
        table = count_table(profile)
    if len(table.cumulative) == 0:
        return 0.0
    return float(table.cumulative[min(t, len(table.cumulative) - 1)])


def sample_top_index(profile: SpectrumProfile, rng: np.random.Generator,
                     table: CountTable | None = None) -> int | None:
    """Draw T by CDF inversion; None encodes the zero-point outcome."""
    if table is None:
        table = count_table(profile)
    u = rng.random()
    if u < table.hole_prob or len(table.pmf) == 0:
        return None
    return int(np.searchsorted(table.cumulative, u - table.hole_prob, side="right"))


def sample_indicators(profile: SpectrumProfile, m: int,
                      rng: np.random.Generator) -> IndicatorDraw:
    """Draw B_0..B_{m-1} independently with means lambda_i; B_m = 1."""
    if not 0 <= m < max(profile.count, 1):
        raise ValueError(f"top index {m} outside profile range (count={profile.count})")
    lam = profile.eigenvalues[:m]
    bits = rng.random(m) < lam
    selected = tuple(int(i) for i in np.nonzero(bits)[0]) + (m,)
    return IndicatorDraw(top_index=m, indicators=bits, selected=selected)
