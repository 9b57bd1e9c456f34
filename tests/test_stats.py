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
    chi2_sf,
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
    h, p = kruskal_wallis([[1, 2], [3, 4]])
    assert h == pytest.approx(2.4, abs=1e-12)
    assert p == pytest.approx(0.121335, abs=1e-6)
    assert float(oracle_kruskal_h([[1, 2], [3, 4]])) == pytest.approx(2.4, abs=1e-12)


def test_kruskal_wallis_tie_free_8v8_separation():
    low = [1, 2, 3, 4, 5, 6, 7, 8]
    high = [9, 10, 11, 12, 13, 14, 15, 16]
    h, p = kruskal_wallis([low, high])
    assert h == pytest.approx(192 / 17, abs=1e-12)  # 11.294117...
    assert p == pytest.approx(0.0007775, abs=1e-7)


def test_kruskal_wallis_tied_zeros_vs_descending():
    h, p = kruskal_wallis([[8, 7, 6, 5, 4, 3, 2, 1], [0] * 8])
    assert h == pytest.approx(float(oracle_kruskal_h([[8, 7, 6, 5, 4, 3, 2, 1], [0] * 8])), abs=1e-12)
    assert h == pytest.approx(1920 / 149, abs=1e-12)  # 12.8859...
    assert p == pytest.approx(3.31e-4, abs=1e-6)


def test_kruskal_wallis_heavily_tied_separation():
    h, p = kruskal_wallis([[100] * 8, [0] * 8])
    assert h == pytest.approx(15.0, abs=1e-12)
    assert p == pytest.approx(1.0751e-4, abs=1e-8)
    assert p == pytest.approx(oracle_chi2_sf_df1(15.0), rel=1e-12)


def test_kruskal_wallis_all_values_identical():
    assert kruskal_wallis([[5, 5, 5], [5, 5]]) == (0.0, 1.0)


def test_kruskal_wallis_three_groups():
    groups = [[1, 5, 9], [2, 6, 7], [3, 4, 8]]
    h, p = kruskal_wallis(groups)
    expected_h, expected_p = scipy.stats.kruskal(*groups)
    assert h == pytest.approx(expected_h, abs=1e-10)
    assert p == pytest.approx(expected_p, abs=1e-10)


def test_kruskal_wallis_rejects_bad_input():
    with pytest.raises(ValueError, match="at least 2 groups"):
        kruskal_wallis([[1, 2, 3]])
    with pytest.raises(ValueError, match="empty"):
        kruskal_wallis([[1, 2], []])
    with pytest.raises(ValueError, match="at least 3 values"):
        kruskal_wallis([[1], [2]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_kruskal_wallis_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        kruskal_wallis([[bad, 1.0], [2.0, 3.0]])


@given(
    st.lists(st.integers(0, 8), min_size=2, max_size=12),
    st.lists(st.integers(0, 8), min_size=2, max_size=12),
)
def test_kruskal_wallis_matches_exact_oracle(x, y):
    h, p = kruskal_wallis([x, y])
    assert h == pytest.approx(float(oracle_kruskal_h([x, y])), abs=1e-9)
    assert 0.0 <= p <= 1.0


@given(
    st.lists(st.integers(0, 100), min_size=3, max_size=15),
    st.lists(st.integers(0, 100), min_size=3, max_size=15),
)
def test_kruskal_wallis_matches_scipy(x, y):
    if len(set(x) | set(y)) == 1:
        return  # scipy raises on all-identical data; we define (0, 1)
    h, p = kruskal_wallis([x, y])
    expected_h, expected_p = scipy.stats.kruskal(x, y)
    assert h == pytest.approx(expected_h, abs=1e-9)
    # The df=1 survival function has unbounded slope at 0, so float noise in
    # near-zero H (scipy's cancellation-form H vs our deviation-form H) moves
    # p by up to ~sqrt(2|dH|/pi). Check the H->p mapping at a shared argument
    # instead, plus a conditioning-aware bound on the end-to-end p.
    assert chi2_sf(max(expected_h, 0.0), 1) == pytest.approx(expected_p, abs=1e-12)
    assert p == pytest.approx(expected_p, abs=3e-5)


# ------------------------------------------------------------------ chi-squared


def test_chi2_sf_df1_matches_erfc_closed_form():
    for i in range(0, 161):
        x = i / 4.0
        assert chi2_sf(x, 1) == pytest.approx(oracle_chi2_sf_df1(x), rel=1e-13)


def test_chi2_sf_df2_matches_exponential_closed_form():
    for x in (0.0, 0.5, 1.0, 4.0, 12.5, 30.0):
        assert chi2_sf(x, 2) == pytest.approx(math.exp(-x / 2), rel=1e-12)


def test_chi2_sf_matches_mpmath_for_larger_df():
    # Far tails such as df=200, x=1600 (about 1e-216) catch a sum whose terms
    # underflow to 0 before they are added; near tails such as df=1500, x=200
    # catch rounded terms that sum past 1.
    checked = 0
    for df in (*range(1, 12), 50, 200, 1500, 2000):
        for x in (0.1, 2.0, 7.7, 25.0, 100.0, 300.0, 1000.0, 1600.0, 2100.0, 0.5 * df, df, 1.5 * df):
            assert 0.0 <= chi2_sf(x, df) <= 1.0
            expected = oracle_chi2_sf(x, df)
            if expected > 1e-290:
                assert chi2_sf(x, df) == pytest.approx(expected, rel=1e-12), (x, df)
                checked += 1
    assert checked == 155


def test_chi2_sf_boundaries_and_validation():
    assert chi2_sf(0.0, 1) == 1.0
    assert chi2_sf(0.0, 4) == 1.0
    with pytest.raises(ValueError):
        chi2_sf(-0.1, 1)
    with pytest.raises(ValueError):
        chi2_sf(1.0, 0)
    with pytest.raises(ValueError):
        chi2_sf(1.0, 2.5)  # type: ignore[arg-type]
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            chi2_sf(value, 3)


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
