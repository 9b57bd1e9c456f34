"""Non-parametric comparison of two count distributions: Cliff's delta,
two-sample Kolmogorov-Smirnov distance, and the Kruskal-Wallis H test with
mid-rank ties, tie correction, and a chi-squared p-value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import gammaincc

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


def _midranks(values: Sequence[float]) -> tuple[list[float], float]:
    """Average ranks of sorted ``values`` plus the tie-correction sum of t^3 - t."""
    ranks = [0.0] * len(values)
    tie_sum = 0
    i = 0
    while i < len(values):
        j = i
        while j < len(values) and values[j] == values[i]:
            j += 1
        avg = (i + j + 1) / 2.0  # ranks are 1-based
        for k in range(i, j):
            ranks[k] = avg
        t = j - i
        tie_sum += t * t * t - t
        i = j
    return ranks, float(tie_sum)


def kruskal_wallis(groups: Sequence[Sample]) -> tuple[float, float]:
    """Kruskal-Wallis H across groups, with tie correction.

    Uses mid-ranks for tied values and divides H by the tie-correction factor
    1 - sum(t^3 - t) / (N^3 - N). When every pooled value is identical the
    statistic is defined as H = 0 with p = 1. Returns (H, p) where the p-value
    is the upper chi-squared tail with len(groups) - 1 degrees of freedom.
    """
    if len(groups) < 2:
        raise ValueError("kruskal_wallis requires at least 2 groups")
    for i, g in enumerate(groups):
        if len(g) == 0:
            raise ValueError(f"kruskal_wallis group {i} is empty")
    total = sum(len(g) for g in groups)
    if total < 3:
        raise ValueError(f"kruskal_wallis requires at least 3 values in total, got {total}")

    pooled = sorted((v, gi) for gi, g in enumerate(groups) for v in g)
    ranks, tie_sum = _midranks([v for v, _ in pooled])
    correction = 1.0 - tie_sum / (total**3 - total)
    if correction == 0.0:  # every value identical
        return 0.0, 1.0

    rank_sums = [0.0] * len(groups)
    for (_, gi), rank in zip(pooled, ranks):
        rank_sums[gi] += rank
    grand_mean = (total + 1) / 2.0
    h = 12.0 / (total * (total + 1)) * sum(
        len(g) * (rank_sums[gi] / len(g) - grand_mean) ** 2 for gi, g in enumerate(groups)
    )
    h /= correction
    return h, chi2_sf(h, len(groups) - 1)


def chi2_sf(value: float, df: int) -> float:
    """Upper-tail probability of the chi-squared distribution.

    Computed as the regularized upper incomplete gamma Q(df/2, value/2).
    """
    if not isinstance(df, int) or df < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {df!r}")
    if value < 0:
        raise ValueError(f"chi-squared statistic must be >= 0, got {value}")
    return float(gammaincc(df / 2.0, value / 2.0))


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
