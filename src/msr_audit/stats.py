"""Non-parametric comparison of two count distributions: Cliff's delta,
two-sample Kolmogorov-Smirnov distance, and the Kruskal-Wallis H test with
mid-rank ties, tie correction, and a one-degree-of-freedom chi-squared p-value.
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


def kruskal_wallis(x: Sample, y: Sample) -> tuple[float, float]:
    """Kruskal-Wallis H between two samples, with tie correction.

    Uses mid-ranks for tied values and divides H by the tie-correction factor
    1 - sum(t^3 - t) / (N^3 - N). When every pooled value is identical the
    statistic is defined as H = 0 with p = 1. Returns (H, p) where the p-value
    is the upper chi-squared tail with one degree of freedom, erfc(sqrt(H/2)).
    Values must be finite: NaN has no rank.
    """
    if len(x) == 0 or len(y) == 0:
        raise ValueError("kruskal_wallis requires two non-empty samples")
    total = len(x) + len(y)
    if total < 3:
        raise ValueError(f"kruskal_wallis requires at least 3 values in total, got {total}")
    pooled = np.concatenate((np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)))
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
    sum_x, sum_y = float(ranks[: len(x)].sum()), float(ranks[len(x) :].sum())
    grand_mean = (total + 1) / 2.0
    spread = len(x) * (sum_x / len(x) - grand_mean) ** 2 + len(y) * (sum_y / len(y) - grand_mean) ** 2
    h = 12.0 / (total * (total + 1)) * spread
    h /= correction
    return h, math.erfc(math.sqrt(h / 2.0))


def compare_samples(first: Sample, second: Sample) -> CohortComparison:
    """Delta, KS distance, and Kruskal-Wallis (H, p) between two samples."""
    h, p = kruskal_wallis(first, second)
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
