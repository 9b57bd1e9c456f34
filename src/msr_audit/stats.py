"""Non-parametric comparison of two count distributions: Cliff's delta,
two-sample Kolmogorov-Smirnov distance, and the Kruskal-Wallis H test with
mid-rank ties, tie correction, and a chi-squared p-value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from msr_audit.matching import FrequencyArray

Sample = Sequence[float]


@dataclass(frozen=True)
class CohortComparison:
    """Summary statistics comparing two samples.

    ``delta`` follows the order the samples were passed in: positive when the
    first sample tends to exceed the second. ``n_first``/``n_second`` are the
    sample sizes in that same order.
    """

    delta: float
    ks: float
    h_statistic: float
    p_value: float
    n_first: int
    n_second: int


def cliffs_delta(x: Sample, y: Sample) -> float:
    """Rank effect size in [-1, 1]: P(x > y) - P(x < y) over all pairs.

    Ties contribute zero. Positive values mean x tends to be larger. The
    pairs are counted as integers by binary search in sorted ``y``, so the
    result is the exact count difference divided once by len(x) * len(y).
    """
    if len(x) == 0 or len(y) == 0:
        raise ValueError("cliffs_delta requires two non-empty samples")
    ys = np.sort(np.asarray(y))
    greater = int(np.searchsorted(ys, x, "left").sum())
    less = len(x) * len(ys) - int(np.searchsorted(ys, x, "right").sum())
    return (greater - less) / (len(x) * len(ys))


def ks_distance(x: Sample, y: Sample) -> float:
    """Two-sample Kolmogorov-Smirnov distance: sup |ECDF_x(t) - ECDF_y(t)|."""
    if len(x) == 0 or len(y) == 0:
        raise ValueError("ks_distance requires two non-empty samples")
    xs, ys = np.sort(np.asarray(x)), np.sort(np.asarray(y))
    # Both step functions jump only at sample values, so the sup is reached
    # at one of them.
    points = np.concatenate((xs, ys))
    gaps = np.abs(
        np.searchsorted(xs, points, "right") / len(xs) - np.searchsorted(ys, points, "right") / len(ys)
    )
    return float(gaps.max())


def kruskal_wallis(groups: Sequence[Sample]) -> tuple[float, float]:
    """Kruskal-Wallis H across groups, with tie correction.

    Uses mid-ranks for tied values and divides H by the tie-correction factor
    1 - sum(t^3 - t) / (N^3 - N). When every pooled value is identical the
    statistic is defined as H = 0 with p = 1. Returns (H, p) where the p-value
    is the upper chi-squared tail with len(groups) - 1 degrees of freedom.
    Values must be finite: NaN has no rank.
    """
    if len(groups) < 2:
        raise ValueError("kruskal_wallis requires at least 2 groups")
    sizes = [len(g) for g in groups]
    for i, n in enumerate(sizes):
        if n == 0:
            raise ValueError(f"kruskal_wallis group {i} is empty")
    total = sum(sizes)
    if total < 3:
        raise ValueError(f"kruskal_wallis requires at least 3 values in total, got {total}")
    pooled = np.concatenate([np.asarray(g, dtype=np.float64) for g in groups])
    if not np.isfinite(pooled).all():
        raise ValueError("kruskal_wallis requires finite values")

    _, inverse, ties = np.unique(pooled, return_inverse=True, return_counts=True)
    if len(ties) == 1:  # every value identical
        return 0.0, 1.0
    # float64, not int64: exact while N^3 < 2^53, and t^3 cannot wrap beyond.
    tie_sum = float((ties.astype(np.float64) ** 3 - ties).sum())
    correction = 1.0 - tie_sum / (total**3 - total)
    # Mid-ranks are half-integers, so the rank sums are exact in any order.
    ranks = (np.cumsum(ties) - (ties - 1) / 2.0)[inverse]
    rank_sums = np.bincount(np.repeat(np.arange(len(groups)), sizes), weights=ranks).tolist()
    grand_mean = (total + 1) / 2.0
    h = 12.0 / (total * (total + 1)) * sum(n * (s / n - grand_mean) ** 2 for n, s in zip(sizes, rank_sums))
    h /= correction
    return h, chi2_sf(h, len(groups) - 1)


def chi2_sf(value: float, df: int) -> float:
    """Upper-tail probability of the chi-squared distribution.

    The regularized upper incomplete gamma Q(df/2, z) at z = value/2, in
    closed form for integer df: Q(a + 1, z) = Q(a, z) + z^a e^-z / Gamma(a + 1),
    from Q(1/2, z) = erfc(sqrt(z)) for odd df and from 0 at a = 0 for even df.
    Each term is formed in log space: a recurrence from e^-z underflows to 0
    at df=200, value=1600, where the tail is about 1e-216.
    """
    if not isinstance(df, int) or df < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {df!r}")
    if not 0 <= value < math.inf:
        raise ValueError(f"chi-squared statistic must be finite and >= 0, got {value}")
    if value == 0:
        return 1.0
    z = value / 2.0
    if df % 2:
        tail, exponents = math.erfc(math.sqrt(z)), [i - 0.5 for i in range(1, (df + 1) // 2)]
    else:
        tail, exponents = 0.0, range(df // 2)
    log_z = math.log(z)
    tail += sum(math.exp(a * log_z - z - math.lgamma(a + 1)) for a in exponents)
    return min(tail, 1.0)  # rounded terms lift a tail near 1 past it: df=200, value=25


def compare_samples(first: Sample, second: Sample) -> CohortComparison:
    """Delta, KS distance, and Kruskal-Wallis (H, p) between two samples."""
    h, p = kruskal_wallis([first, second])
    return CohortComparison(
        delta=cliffs_delta(first, second),
        ks=ks_distance(first, second),
        h_statistic=h,
        p_value=p,
        n_first=len(first),
        n_second=len(second),
    )


def compare_cohorts(f_pre: FrequencyArray, f_post: FrequencyArray) -> CohortComparison:
    """Compare aggregated frequency arrays of the two cohorts.

    Delta is computed as cliffs_delta(post, pre) so higher pre-cohort counts
    yield a negative value.
    """
    if (f_pre.l_min, f_pre.l_max) != (f_post.l_min, f_post.l_max):
        raise ValueError(
            f"threshold mismatch: pre [{f_pre.l_min}, {f_pre.l_max}] "
            f"vs post [{f_post.l_min}, {f_post.l_max}]"
        )
    return compare_samples(f_post.counts, f_pre.counts)
