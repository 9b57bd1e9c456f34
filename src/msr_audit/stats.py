"""Non-parametric comparison of two count distributions: Cliff's delta,
two-sample Kolmogorov-Smirnov distance, and the Kruskal-Wallis H test with
mid-rank ties, tie correction, and a one-degree-of-freedom chi-squared p-value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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


def _rank(x: Sample, y: Sample, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per distinct pooled value, ascending: its mid-rank, its count in ``x``
    and its count in both samples (ties). NaN has no rank: values must be finite.
    """
    if len(x) == 0 or len(y) == 0:
        raise ValueError(f"{name} requires two non-empty samples")
    pooled = np.concatenate((np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)))
    if not np.isfinite(pooled).all():
        raise ValueError(f"{name} requires finite values")
    _, inverse, ties = np.unique(pooled, return_inverse=True, return_counts=True)
    in_x = np.bincount(inverse[: len(x)], minlength=len(ties))
    # Mid-ranks are half-integers, so sums of them are exact in any order.
    return np.cumsum(ties) - (ties - 1) / 2.0, in_x, ties


def cliffs_delta(x: Sample, y: Sample) -> float:
    """Rank effect size in [-1, 1]: P(x > y) - P(x < y) over all pairs.

    Ties contribute zero. Positive values mean x tends to be larger. With R
    the sum of x's mid-ranks, 2R - n(n + 1) - nm is the exact integer count
    of wins minus losses, divided once by nm.
    """
    ranks, in_x, _ = _rank(x, y, "cliffs_delta")
    n, m = len(x), len(y)
    return (2.0 * float(ranks @ in_x) - n * (n + 1) - n * m) / (n * m)


def ks_distance(x: Sample, y: Sample) -> float:
    """Two-sample Kolmogorov-Smirnov distance: sup |ECDF_x(t) - ECDF_y(t)|."""
    _, in_x, ties = _rank(x, y, "ks_distance")
    # Both step functions jump only at sample values, so the sup is reached
    # at one of them.
    gaps = np.abs(np.cumsum(in_x) / len(x) - np.cumsum(ties - in_x) / len(y))
    return float(gaps.max())


def kruskal_wallis(x: Sample, y: Sample) -> tuple[float, float]:
    """Kruskal-Wallis H between two samples, with tie correction.

    Uses mid-ranks for tied values and divides H by the tie-correction factor
    1 - sum(t^3 - t) / (N^3 - N). When every pooled value is identical the
    statistic is defined as H = 0 with p = 1. Returns (H, p) where the p-value
    is the upper chi-squared tail with one degree of freedom, erfc(sqrt(H/2)).
    """
    ranks, in_x, ties = _rank(x, y, "kruskal_wallis")
    total = len(x) + len(y)
    if total < 3:
        raise ValueError(f"kruskal_wallis requires at least 3 values in total, got {total}")
    if len(ties) == 1:  # every value identical
        return 0.0, 1.0
    # float64, not int64: exact while N^3 < 2^53, and t^3 cannot wrap beyond.
    tie_sum = float((ties.astype(np.float64) ** 3 - ties).sum())
    correction = 1.0 - tie_sum / (total**3 - total)
    sum_x = float(ranks @ in_x)
    sum_y = total * (total + 1) / 2.0 - sum_x
    grand_mean = (total + 1) / 2.0
    spread = len(x) * (sum_x / len(x) - grand_mean) ** 2 + len(y) * (sum_y / len(y) - grand_mean) ** 2
    h = 12.0 / (total * (total + 1)) * spread / correction
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


def compare_cohorts(f_pre: Sample, f_post: Sample) -> CohortComparison:
    """Compare the two cohorts' summed counts, one per length threshold.

    Delta is computed as cliffs_delta(post, pre) so higher pre-cohort counts
    yield a negative value.
    """
    if len(f_pre) != len(f_post):
        raise ValueError(f"frequency arrays differ in length: pre {len(f_pre)} vs post {len(f_post)}")
    return compare_samples(f_post, f_pre)
