"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Every numeric target is asserted at its stated tolerance, and the derived
values are independently recomputed by the brute-force / exact-arithmetic
oracles rather than trusted from the implementation under test.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import make_corpus
from oracles import (
    oracle_chi2_sf,
    oracle_cliffs_delta,
    oracle_kruskal_h,
    oracle_ks_distance,
    oracle_rows,
)
from msr_audit.gateway import ObliviousBackend, PartialCopyBackend, VerbatimBackend
from msr_audit.matching import maximal_common_substrings, sum_arrays
from msr_audit.prompting import segment
from msr_audit.runner import ExperimentConfig, emit_report, run_audit, sweep_length
from msr_audit.stats import cliffs_delta, compare_cohorts, kruskal_wallis, ks_distance
from test_prompting import _doc
from test_stats import kw_pairs_spanning_h

SPLIT = {"pre": VerbatimBackend(), "post": ObliviousBackend()}


def _report(number: int, label: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {label}")


@pytest.fixture(scope="module")
def big_corpus():
    return make_corpus(n_pre=100, n_post=100, words=1010)


BIG_CONFIG = ExperimentConfig(shots=6, l_min=5, l_max=12, min_words=1000)


def test_criterion_1_complete_separation_statistics():
    ok = False
    try:
        f_pre = tuple(range(16, 8, -1))  # 16..9
        f_post = tuple(range(8, 0, -1))  # 8..1
        result = compare_cohorts(f_pre, f_post)

        assert result.delta == -1.0
        assert result.ks == 1.0
        assert result.h_statistic == pytest.approx(11.29, abs=0.01)
        assert result.p_value == pytest.approx(0.0008, abs=0.0001)

        compare_cohorts(f_pre, f_post)  # warm-up for timing
        elapsed = min(_timed(lambda: compare_cohorts(f_pre, f_post)) for _ in range(20))
        assert elapsed < 0.001, f"comparison took {elapsed * 1e6:.0f} us"
        ok = True
    finally:
        _report(1, "complete separation gives delta -1.0, KS 1.0, H 11.29, p 0.0008 in <1 ms", ok)


def test_criterion_2_effect_size_representability():
    ok = False
    try:
        rng = random.Random(2024)
        for _ in range(500):
            x = [rng.randrange(0, 30) for _ in range(8)]
            y = [rng.randrange(0, 30) for _ in range(8)]
            delta_exact = oracle_cliffs_delta(x, y)
            assert (delta_exact * 64).denominator == 1, "64*delta must be an integer for 8v8"
            assert cliffs_delta(x, y) == pytest.approx(float(delta_exact), abs=1e-12)
            ks_exact = oracle_ks_distance(x, y)
            assert (ks_exact * 8).denominator == 1, "8-sample KS must be a multiple of 1/8"
            assert ks_distance(x, y) == pytest.approx(float(ks_exact), abs=1e-12)

        pre = [2, 4, 6, 8, 10, 12, 14, 16]
        strong_post = [0, 0, 0, 0, 0, 0, 0, 12]
        weak_post = [0, 0, 0, 0, 0, 12, 9, 9]
        strong = cliffs_delta(strong_post, pre)
        weak = cliffs_delta(weak_post, pre)
        assert strong == -53 / 64 and round(strong, 3) == -0.828
        assert weak == -37 / 64 and round(weak, 3) == -0.578
        assert oracle_cliffs_delta(strong_post, pre) == Fraction(-53, 64)
        assert oracle_cliffs_delta(weak_post, pre) == Fraction(-37, 64)
        ok = True
    finally:
        _report(2, "8v8 deltas land on 64ths, KS on 8ths; -53/64 and -37/64 realized", ok)


def test_criterion_3_match_kernel_oracle_equivalence():
    ok = False
    try:
        rng = random.Random(1234)
        start = time.perf_counter()
        for _ in range(200):
            ref = [rng.choice("abcde") for _ in range(rng.randrange(0, 41))]
            gen = [rng.choice("abcde") for _ in range(rng.randrange(0, 41))]
            assert maximal_common_substrings(ref, gen).tolist() == oracle_rows(ref, gen)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"200 oracle comparisons took {elapsed:.2f} s"
        ok = True
    finally:
        _report(3, "match kernel equals brute-force oracle on 200 random pairs in <5 s", ok)


def test_criterion_4_end_to_end_mock_audit(big_corpus):
    ok = False
    try:
        start = time.perf_counter()
        report = run_audit(big_corpus, BIG_CONFIG, backends=SPLIT)
        elapsed = time.perf_counter() - start

        assert report.n_docs_pre == 100 and report.n_docs_post == 100
        assert report.comparison.delta <= -0.9
        assert report.comparison.ks >= 0.875
        assert report.comparison.p_value <= 0.01
        assert elapsed < 10.0, f"mock audit took {elapsed:.2f} s"
        ok = True
    finally:
        _report(4, "100v100 mock audit: delta <= -0.9, KS >= 0.875, p <= 0.01 in <10 s offline", ok)


def test_criterion_5_graded_sensitivity_to_copy_probability():
    ok = False
    try:
        corpus = make_corpus(n_pre=6, n_post=6, words=606)  # 101-token references
        config = ExperimentConfig(shots=6, l_min=5, l_max=12, min_words=50)
        for seed in range(5):
            f5_by_p = []
            for p in (0.0, 0.5, 1.0):
                report = run_audit(
                    corpus, replace(config, seed=seed), backends=PartialCopyBackend(p)
                )
                total = sum_arrays([report.f_pre, report.f_post])
                f5_by_p.append(total[0])  # threshold k = 5
            assert f5_by_p[0] < f5_by_p[1] < f5_by_p[2], f"seed {seed}: f_5 not increasing: {f5_by_p}"
        ok = True
    finally:
        _report(5, "aggregated f_5 strictly increases with copy probability for all 5 seeds", ok)


def test_criterion_6_length_sweep_contract():
    ok = False
    try:
        doc = _doc(75)
        assert [e - s for s, e in segment(doc, 6)] == [13, 13, 13, 12, 12, 12]
        assert ExperimentConfig(l_max=12, truncate_words=75, shots=6).resolved_l_max == 12

        corpus = make_corpus(n_pre=4, n_post=4, words=1010)
        reports = sweep_length(corpus, BIG_CONFIG, [75, 125, 250, 500, 1000], backends=SPLIT)
        assert sorted(reports) == [75, 125, 250, 500, 1000]
        for length, report in reports.items():
            assert report.config.resolved_l_max == 12 and len(report.f_pre) == 8
            assert report.n_docs_pre == 4 and report.n_docs_post == 4
        ok = True
    finally:
        _report(6, "75/6 segments are [13,13,13,12,12,12], l_max 12; lengths 75..1000 all run", ok)


def test_criterion_7_statistical_unit_oracles():
    ok = False
    try:
        h, p = kruskal_wallis([1, 2], [3, 4])
        assert h == pytest.approx(2.4, abs=1e-9)
        assert p == pytest.approx(0.1213, abs=1e-4)
        assert float(oracle_kruskal_h([[1, 2], [3, 4]])) == pytest.approx(2.4, abs=1e-12)

        delta = cliffs_delta([1, 2, 3], [2, 3, 4])
        assert delta == pytest.approx(-5 / 9, abs=1e-12)
        assert oracle_cliffs_delta([1, 2, 3], [2, 3, 4]) == Fraction(-5, 9)

        hs = []
        for x, y in kw_pairs_spanning_h():
            h, p = kruskal_wallis(x, y)
            assert abs(p - oracle_chi2_sf(h, 1)) <= 1e-8
            hs.append(h)
        assert min(hs) == 0.0 and max(hs) > 40
        ok = True
    finally:
        _report(7, "KW (2.4, 0.1213), delta -5/9, KW p matches mpmath chi2 df=1 to 1e-8 for H in [0, 40]", ok)


def test_criterion_8_deterministic_csv_output(big_corpus, tmp_path):
    ok = False
    try:
        first = emit_report(run_audit(big_corpus, BIG_CONFIG, backends=SPLIT), tmp_path / "run1")
        second = emit_report(run_audit(big_corpus, BIG_CONFIG, backends=SPLIT), tmp_path / "run2")
        first_bytes = first["frequencies"].read_bytes()
        assert first_bytes == second["frequencies"].read_bytes()
        assert first_bytes.startswith(b"k,count_pre,count_post\n")
        ok = True
    finally:
        _report(8, "repeated mock audits write byte-identical frequencies.csv", ok)


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
