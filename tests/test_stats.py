from __future__ import annotations

import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

import msr_audit
from oracles import (
    oracle_chi2_sf,
    oracle_chi2_sf_df1,
    oracle_cliffs_delta,
    oracle_kruskal_h,
    oracle_ks_distance,
)
from msr_audit.matching import FrequencyArray
from msr_audit.stats import (
    cliffs_delta,
    compare_cohorts,
    compare_samples,
    kruskal_wallis,
    ks_distance,
)

samples = st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=25)


# ---------------------------------------------------------------- Cliff's delta


def test_cliffs_delta_known_value():
    assert cliffs_delta([1, 2, 3], [2, 3, 4]) == pytest.approx(-5 / 9, abs=1e-15)
    assert Fraction(-5, 9) == oracle_cliffs_delta([1, 2, 3], [2, 3, 4])


def test_cliffs_delta_extremes_and_symmetry():
    assert cliffs_delta([5, 6], [1, 2]) == 1.0
    assert cliffs_delta([1, 2], [5, 6]) == -1.0
    assert cliffs_delta([3, 3], [3, 3]) == 0.0


def test_cliffs_delta_rejects_empty():
    with pytest.raises(ValueError):
        cliffs_delta([], [1])
    with pytest.raises(ValueError):
        cliffs_delta([1], [])


@given(samples, samples)
def test_cliffs_delta_matches_oracle(x, y):
    assert cliffs_delta(x, y) == pytest.approx(float(oracle_cliffs_delta(x, y)), abs=1e-12)


@given(samples, samples)
def test_cliffs_delta_antisymmetry_and_range(x, y):
    d = cliffs_delta(x, y)
    assert -1.0 <= d <= 1.0
    assert d == pytest.approx(-cliffs_delta(y, x), abs=1e-12)


def test_cliffs_delta_8v8_is_64ths():
    rng = random.Random(0)
    for _ in range(300):
        x = [rng.randrange(0, 12) for _ in range(8)]
        y = [rng.randrange(0, 12) for _ in range(8)]
        exact = oracle_cliffs_delta(x, y)
        assert exact.denominator in (1, 2, 4, 8, 16, 32, 64)
        assert cliffs_delta(x, y) == pytest.approx(float(exact), abs=1e-12)


# ------------------------------------------------------------------ KS distance


def test_ks_distance_known_value():
    assert ks_distance([1, 2, 3, 4], [3, 4, 5, 6]) == pytest.approx(0.5, abs=1e-15)


def test_ks_distance_disjoint_and_identical():
    assert ks_distance([1, 2], [10, 11]) == 1.0
    assert ks_distance([1, 2, 3], [1, 2, 3]) == 0.0


def test_ks_distance_rejects_empty():
    with pytest.raises(ValueError):
        ks_distance([], [1])


@given(samples, samples)
def test_ks_distance_matches_oracle(x, y):
    assert ks_distance(x, y) == pytest.approx(float(oracle_ks_distance(x, y)), abs=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # scipy-internal on tiny samples
@given(samples, samples)
def test_ks_distance_matches_scipy(x, y):
    expected = scipy.stats.ks_2samp(x, y, method="asymp").statistic
    assert ks_distance(x, y) == pytest.approx(expected, abs=1e-12)


@given(st.lists(st.integers(0, 30), min_size=8, max_size=8), st.lists(st.integers(0, 30), min_size=8, max_size=8))
def test_ks_distance_8v8_is_eighths(x, y):
    exact = oracle_ks_distance(x, y)
    assert exact.denominator in (1, 2, 4, 8)
    assert ks_distance(x, y) == pytest.approx(float(exact), abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_rank_statistics_on_tie_heavy_samples_of_1000(seed):
    rng = random.Random(seed)
    pool = [0, 0, 0, 1, 1, 2, 2.5, 3, 0.1, 7]
    x = [rng.choice(pool) for _ in range(1000)]
    y = [rng.choice(pool) + rng.choice((0, 0, 1)) for _ in range(1000 - 37 * seed)]
    # The delta is one integer difference over n * m, so it rounds exactly
    # like the fraction.
    assert cliffs_delta(x, y) == float(oracle_cliffs_delta(x, y))
    assert cliffs_delta(y, x) == float(oracle_cliffs_delta(y, x))
    assert ks_distance(x, y) == pytest.approx(float(oracle_ks_distance(x, y)), abs=1e-12)
    expected = scipy.stats.ks_2samp(x, y, method="asymp").statistic
    assert ks_distance(x, y) == pytest.approx(expected, abs=1e-12)


# --------------------------------------------------------------- Kruskal-Wallis


def test_kruskal_wallis_two_pairs():
    h, p = kruskal_wallis([1, 2], [3, 4])
    assert h == pytest.approx(2.4, abs=1e-12)
    assert p == pytest.approx(0.121335, abs=1e-6)
    assert float(oracle_kruskal_h([[1, 2], [3, 4]])) == pytest.approx(2.4, abs=1e-12)


def test_kruskal_wallis_tie_free_8v8_separation():
    low = [1, 2, 3, 4, 5, 6, 7, 8]
    high = [9, 10, 11, 12, 13, 14, 15, 16]
    h, p = kruskal_wallis(low, high)
    assert h == pytest.approx(192 / 17, abs=1e-12)  # 11.294117...
    assert p == pytest.approx(0.0007775, abs=1e-7)


def test_kruskal_wallis_tied_zeros_vs_descending():
    h, p = kruskal_wallis([8, 7, 6, 5, 4, 3, 2, 1], [0] * 8)
    assert h == pytest.approx(float(oracle_kruskal_h([[8, 7, 6, 5, 4, 3, 2, 1], [0] * 8])), abs=1e-12)
    assert h == pytest.approx(1920 / 149, abs=1e-12)  # 12.8859...
    assert p == pytest.approx(3.31e-4, abs=1e-6)


def test_kruskal_wallis_heavily_tied_separation():
    h, p = kruskal_wallis([100] * 8, [0] * 8)
    assert h == pytest.approx(15.0, abs=1e-12)
    assert p == pytest.approx(1.0751e-4, abs=1e-8)
    assert p == pytest.approx(oracle_chi2_sf_df1(15.0), rel=1e-12)


def test_kruskal_wallis_all_values_identical():
    assert kruskal_wallis([5, 5, 5], [5, 5]) == (0.0, 1.0)


def test_kruskal_wallis_rejects_bad_input():
    with pytest.raises(ValueError, match="empty"):
        kruskal_wallis([1, 2], [])
    with pytest.raises(ValueError, match="at least 3 values"):
        kruskal_wallis([1], [2])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kruskal_wallis_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        kruskal_wallis([bad, 1.0], [2.0, 3.0])


@given(
    st.lists(st.integers(0, 8), min_size=2, max_size=12),
    st.lists(st.integers(0, 8), min_size=2, max_size=12),
)
def test_kruskal_wallis_matches_exact_oracle(x, y):
    h, p = kruskal_wallis(x, y)
    assert h == pytest.approx(float(oracle_kruskal_h([x, y])), abs=1e-9)
    assert 0.0 <= p <= 1.0


@given(
    st.lists(st.integers(0, 100), min_size=3, max_size=15),
    st.lists(st.integers(0, 100), min_size=3, max_size=15),
)
def test_kruskal_wallis_matches_scipy(x, y):
    if len(set(x) | set(y)) == 1:
        return  # scipy raises on all-identical data; we define (0, 1)
    h, p = kruskal_wallis(x, y)
    expected_h, expected_p = scipy.stats.kruskal(x, y)
    assert h == pytest.approx(expected_h, abs=1e-9)
    # The df=1 survival function has unbounded slope at 0, so float noise in
    # near-zero H (scipy's cancellation-form H vs our deviation-form H) moves
    # p by up to ~sqrt(2|dH|/pi). Check the H->p mapping at our own H
    # instead, plus a conditioning-aware bound on the end-to-end p.
    assert p == pytest.approx(scipy.stats.chi2.sf(h, 1), abs=1e-12)
    assert p == pytest.approx(expected_p, abs=3e-5)


# ------------------------------------------------------------------ chi-squared


def kw_pairs_spanning_h():
    """Seeded sample pairs whose H runs from 0 to 41.3 (28 vs 28, fully separated)."""
    rng = random.Random(7)
    pairs = []
    for _ in range(200):
        n, m, hi = rng.randint(1, 30), rng.randint(2, 30), rng.choice((3, 10, 100))
        shift = rng.randrange(hi)
        pairs.append(([rng.randrange(hi) for _ in range(n)], [rng.randrange(hi) + shift for _ in range(m)]))
    return pairs + [(list(range(n)), list(range(n, 2 * n))) for n in range(2, 29)]


def test_chi2_sf_df1_matches_erfc_closed_form():
    # The p-value is erfc(sqrt(H/2)); mpmath's regularized gamma Q(1/2, H/2)
    # reaches the same tail without the erfc form.
    hs = []
    for x, y in kw_pairs_spanning_h():
        h, p = kruskal_wallis(x, y)
        assert p == pytest.approx(oracle_chi2_sf(h, 1), rel=1e-13), (x, y)
        hs.append(h)
    assert min(hs) == 0.0 and max(hs) > 40


def test_chi2_sf_boundaries_and_validation():
    assert kruskal_wallis([1, 2], [1, 2]) == (0.0, 1.0)


def _loaded_by_import(*modules):
    """Which of ``modules`` a fresh interpreter has loaded after ``import msr_audit``."""
    src = str(Path(msr_audit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = f"import sys, msr_audit; print(*sorted(set({modules!r}) & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return result.stdout.split()


def test_import_leaves_scipy_unloaded():
    assert _loaded_by_import("scipy") == []


def test_import_leaves_requests_unloaded():
    assert _loaded_by_import("requests", "urllib3") == []


# ------------------------------------------------------------------ comparisons


def test_compare_samples_field_order():
    result = compare_samples([5, 6, 7], [1, 2])
    assert result.delta == 1.0
    assert result.ks == 1.0
    assert result.n_first == 3 and result.n_second == 2
    assert result.h_statistic > 0 and 0 < result.p_value < 1


# float.hex() of (delta, ks, H, p) for fixed pairs: sizes 1 to 40, heavy
# ties, half-integer values, an all-identical pair and p < 1e-6. The seeded
# pairs are (seed, n_first, n_second, hi), drawn with random.Random(seed).randrange(hi).
_SEEDED_GOLDENS = [
    ((0, 1, 2, 5), ('0x1.0000000000000p-1', '0x1.0000000000000p-1', '0x1.0000000000000p-1', '0x1.eb02147ce245cp-2')),
    ((1, 2, 1, 5), ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.8000000000000p+0', '0x1.c3ef58d4e04d0p-3')),
    ((2, 1, 40, 30), ('0x1.8000000000000p-1', '0x1.a666666666666p-1', '0x1.9ccb82e2de92ep+0', '0x1.a215fbe4a2dc1p-3')),
    ((3, 40, 1, 30), ('-0x1.4cccccccccccdp-1', '0x1.a666666666666p-1', '0x1.3629cf0779b5fp+0', '0x1.15865a9f5e9bcp-2')),
    ((4, 3, 3, 4), ('-0x1.5555555555555p-1', '0x1.5555555555556p-1', '0x1.d1745d1745d17p+0', '0x1.6b94c5716428bp-3')),
    ((5, 8, 8, 3), ('0x1.9000000000000p-1', '0x1.4000000000000p-1', '0x1.f90cede62433cp+2', '0x1.4584747f0b401p-8')),
    ((6, 8, 8, 12), ('-0x1.2000000000000p-2', '0x1.8000000000000p-2', '0x1.d0eec7bfb6878p-1', '0x1.5ccd3566021a8p-2')),
    ((7, 12, 9, 2), ('0x1.c71c71c71c71cp-4', '0x1.c71c71c71c720p-4', '0x1.2f684bda12f63p-2', '0x1.2c2433195a942p-1')),
    ((8, 17, 23, 6), ('-0x1.2551d7681a307p-3', '0x1.ccee527f04954p-3', '0x1.3d223e90ff6b9p-1', '0x1.b99ebf40f29d1p-2')),
    ((9, 40, 40, 4), ('0x1.af5c28f5c28f6p-3', '0x1.6666666666664p-3', '0x1.6d479187bef8cp+1', '0x1.75658449ed8e5p-4')),
    ((10, 40, 37, 1_000), ('-0x1.88fe9dc0588ffp-5', '0x1.650426bef6508p-4', '0x1.0c50c7c6a5218p-3', '0x1.6f4ce6001416ep-1')),
    ((11, 25, 31, 2), ('-0x1.5789157891579p-4', '0x1.5789157891578p-4', '0x1.8c2c8a4f2bbd7p-2', '0x1.1160817e6b62ep-1')),
    ((12, 5, 11, 1_000_000), ('0x1.1745d1745d174p-2', '0x1.bed61bed61bedp-2', '0x1.71a02bceb7719p-1', '0x1.9501669123b9bp-2')),
    ((13, 33, 29, 40), ('-0x1.476c56abbc96ep-2', '0x1.10da4839c7d32p-2', '0x1.2b065a5a875a3p+2', '0x1.f63a2960ffcc3p-6')),
]
_FIXED_GOLDENS = [
    ([5, 5, 5], [5, 5], ('0x0.0p+0', '0x0.0p+0', '0x0.0p+0', '0x1.0000000000000p+0')),
    ([0] * 8, [0] * 7 + [1], ('-0x1.0000000000000p-3', '0x1.0000000000000p-3', '0x1.fffffffffffffp-1', '0x1.44ed0bb7cb20cp-2')),
    (list(range(20)), list(range(20, 40)), ('-0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.d44aed44aed45p+4', '0x1.0ea98dd041da9p-24')),
    ([0.5, 1.5, 1.5, 2.5], [1.5, 1.5, 3.0], ('-0x1.5555555555555p-2', '0x1.5555555555556p-2', '0x1.37a6f4de9bd3cp-1', '0x1.bdb9de3efc30cp-2')),
    ([100] * 8, [0] * 8, ('0x1.0000000000000p+0', '0x1.0000000000000p+0', '0x1.e000000000001p+3', '0x1.c2ef3f3b8491bp-14')),
    ([3, 1, 2], [2], ('0x0.0p+0', '0x1.5555555555556p-2', '0x0.0p+0', '0x1.0000000000000p+0')),
]


def _seeded_pair(seed, n_first, n_second, hi):
    rng = random.Random(seed)
    return [rng.randrange(hi) for _ in range(n_first)], [rng.randrange(hi) for _ in range(n_second)]


@pytest.mark.parametrize(
    ("x", "y", "expected"),
    [(*_seeded_pair(*spec), expected) for spec, expected in _SEEDED_GOLDENS] + _FIXED_GOLDENS,
)
def test_compare_samples_is_bit_stable(x, y, expected):
    result = compare_samples(x, y)
    assert tuple(v.hex() for v in (result.delta, result.ks, result.h_statistic, result.p_value)) == expected


def test_compare_cohorts_sign_convention():
    # pre matched more: post-vs-pre delta must come out negative
    f_pre = FrequencyArray(5, 12, (16, 14, 12, 10, 8, 6, 4, 2))
    f_post = FrequencyArray(5, 12, (1, 1, 1, 1, 0, 0, 0, 0))
    result = compare_cohorts(f_pre, f_post)
    assert result.delta < 0
    assert result.n_first == 8 and result.n_second == 8

    flipped = compare_cohorts(f_post, f_pre)
    assert flipped.delta == pytest.approx(-result.delta, abs=1e-12)


def test_compare_cohorts_identical_arrays():
    arr = FrequencyArray(5, 8, (4, 3, 2, 1))
    result = compare_cohorts(arr, arr)
    assert result.delta == 0.0
    assert result.ks == 0.0
    assert result.p_value == pytest.approx(1.0, abs=1e-9)


def test_compare_cohorts_rejects_threshold_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        compare_cohorts(FrequencyArray(5, 8, (1, 1, 1, 1)), FrequencyArray(5, 9, (1, 1, 1, 1, 1)))
