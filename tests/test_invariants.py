"""Metamorphic invariants of a whole audit: what a report must keep when its
input changes in a way that carries no evidence of membership.

The Hypothesis corpora are small (at most 14 documents of at most 300
words) and completed by the seeded ``partial:P`` mocks, whose output depends
only on the seed and the reference text, never on a document's cohort or
position. The last tests measure the paper's statistic, with
``assert_calibrated`` and over one cache re-scored at other thresholds.
"""

from __future__ import annotations

import math
import random
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CountingBackend, assert_calibrated, make_corpus
from msr_audit.corpus import Document
from msr_audit.gateway import backend_from_spec
from msr_audit.runner import ExperimentConfig, report_paths, run_audit

_CONFIG = ExperimentConfig(min_words=20, shots=2, l_min=2, l_max=8)
_FLIP = {"pre": "post", "post": "pre"}
# A small vocabulary, so phrases repeat within and across documents.
_VOCAB = ["the", "The", "cat", "sat", "on", "mat", "and", "a", "dog", "ran", "far", "away", "Home", "again"]


def _document(min_words: int) -> st.SearchStrategy[str]:
    """Text of ``min_words`` to 300 words drawn from ``_VOCAB``."""
    length = st.integers(min_words, 300)
    return length.flatmap(lambda n: st.lists(st.sampled_from(_VOCAB), min_size=n, max_size=n).map(" ".join))


_SPEC = st.integers(0, 20).map(lambda i: f"partial:{i / 20:g}")


@st.composite
def _audits(draw):
    """A corpus of 2 to 8 documents, each cohort with at least one that passes
    the length filter, a backend spec per cohort, and a config."""
    texts = {
        cohort: [draw(_document(_CONFIG.min_words + 1)), *draw(st.lists(_document(1), max_size=3))]
        for cohort in ("pre", "post")
    }
    corpus = [
        Document(id=f"{cohort}-{i}", cohort=cohort, text=text)
        for cohort, cohort_texts in texts.items()
        for i, text in enumerate(cohort_texts)
    ]
    draw(st.randoms()).shuffle(corpus)
    backends = {"pre": draw(_SPEC), "post": draw(_SPEC)}
    config = replace(_CONFIG, shots=draw(st.sampled_from([2, 4, 6])), seed=draw(st.integers(0, 2**16)))
    return corpus, backends, config


@settings(max_examples=40, deadline=None)
@given(_audits())
def test_swapping_the_labels_and_the_backends_negates_delta(audit):
    corpus, backends, config = audit
    report = run_audit(corpus, config, backends=backends)
    flipped = [replace(doc, cohort=_FLIP[doc.cohort]) for doc in corpus]
    swapped = run_audit(flipped, config, backends={cohort: backends[_FLIP[cohort]] for cohort in backends})
    assert swapped.comparison.delta == -report.comparison.delta
    assert swapped.comparison.ks == report.comparison.ks
    assert swapped.comparison.h_statistic == report.comparison.h_statistic
    assert swapped.comparison.p_value == report.comparison.p_value
    assert (swapped.f_pre, swapped.f_post) == (report.f_post, report.f_pre)
    assert (swapped.n_docs_pre, swapped.n_docs_post) == (report.n_docs_post, report.n_docs_pre)
    # A document's summary depends on its text, the config and its backend alone.
    assert swapped.documents == tuple(replace(doc, cohort=_FLIP[doc.cohort]) for doc in report.documents)


@settings(max_examples=40, deadline=None)
@given(_audits())
def test_corpus_order_changes_only_the_order_of_documents(audit):
    corpus, backends, config = audit
    with tempfile.TemporaryDirectory() as tmp:
        forward = run_audit(corpus, config, backends=backends, out=Path(tmp, "forward"))
        backward = run_audit(corpus[::-1], config, backends=backends, out=Path(tmp, "backward"))
        csv = [report_paths(Path(tmp, name))["frequencies"].read_bytes() for name in ("forward", "backward")]
    assert (backward.f_pre, backward.f_post) == (forward.f_pre, forward.f_post)
    assert backward.comparison == forward.comparison
    assert backward.failures == forward.failures
    assert csv[0] == csv[1]
    # documents follow corpus order.
    assert backward.documents == forward.documents[::-1]


@pytest.mark.parametrize(("n_pre", "n_post", "delta"), [(30, 100, 1.0), (100, 30, -1.0)])
def test_equal_backends_on_unequal_cohorts_separate_completely(n_pre, n_post, delta):
    # The paper's statistic compares the cohorts' summed counts, so one
    # backend for both cohorts shows complete separation whenever the cohorts
    # differ in size. This pins that flaw as measured.
    report = run_audit(make_corpus(n_pre, n_post, words=120), ExperimentConfig(min_words=50), backends="verbatim")
    assert report.f_pre == (n_pre,) * 8 and report.f_post == (n_post,) * 8
    assert report.comparison.delta == delta
    assert report.comparison.ks == 1.0
    # 8 against 8 values with no overlap: H = 15, p = erfc(sqrt(7.5)), about 1.08e-4.
    assert report.comparison.h_statistic == pytest.approx(15.0, rel=1e-12)
    assert report.comparison.p_value == pytest.approx(math.erfc(math.sqrt(7.5)), rel=1e-12)
    assert round(report.comparison.p_value, 6) == 1.08e-4


@settings(max_examples=20, deadline=None)
@given(_audits(), st.lists(_document(1), min_size=1, max_size=3), st.lists(_document(1), min_size=1, max_size=3))
def test_adding_documents_leaves_every_original_summary_equal(audit, extra_pre, extra_post):
    corpus, backends, config = audit
    extra = [
        Document(id=f"extra-{cohort}-{i}", cohort=cohort, text=text)
        for cohort, texts in (("pre", extra_pre), ("post", extra_post))
        for i, text in enumerate(texts)
    ]
    report = run_audit(corpus, config, backends=backends)
    grown = run_audit(corpus + extra, config, backends=backends)
    assert grown.documents[: len(report.documents)] == report.documents


@settings(max_examples=20, deadline=None)
@given(st.fixed_dictionaries({"pre": _SPEC, "post": _SPEC}), st.integers(0, 2**16))
def test_replicating_the_post_documents_multiplies_only_f_post(backends, seed):
    rng = random.Random(seed)
    pre, post = (
        [Document(id=f"{cohort}-{i}", cohort=cohort, text=" ".join(rng.choices(_VOCAB, k=300))) for i in range(4)]
        for cohort in ("pre", "post")
    )
    replicas = [replace(doc, id=f"{doc.id}-copy{j}") for doc in post for j in range(3)]
    config = replace(_CONFIG, shots=4, l_min=3, seed=seed)
    report = run_audit(pre + post, config, backends=backends)
    tripled = run_audit(pre + replicas, config, backends=backends)
    assert tripled.f_pre == report.f_pre
    assert tripled.f_post == tuple(3 * count for count in report.f_post)
    assert (tripled.n_docs_pre, tripled.n_docs_post) == (4, 12)


def test_assert_calibrated_passes_uniform_pvalues():
    rng = random.Random(0)
    assert_calibrated([rng.random() for _ in range(200)], 0.05)


def test_assert_calibrated_rejects_pvalues_all_below_alpha():
    with pytest.raises(AssertionError, match="20 of 20 p-values below 0.05"):
        assert_calibrated([0.01] * 20, 0.05)


def test_paper_statistic_rejects_the_null_whenever_every_threshold_counts():
    # One backend on both cohorts carries no membership signal, yet the copy
    # mock's 8-word chunks give every threshold from l_min 5 to l_max 8 the
    # same count within a cohort: 4 tied values against 4, so any difference
    # in the cohorts' totals separates them completely, H = 7 and
    # p = erfc(sqrt(3.5)), about 0.0082. This pins that flaw as measured.
    vocab = [f"v{i}" for i in range(3000)]
    pvalues = []
    for seed in range(20):
        rng = random.Random(seed)
        corpus = [
            Document(id=f"{cohort}-{i}", cohort=cohort, text=" ".join(rng.choices(vocab, k=300)))
            for cohort in ("pre", "post")
            for i in range(10)
        ]
        config = ExperimentConfig(min_words=100, l_max=8, seed=seed)
        pvalues.append(run_audit(corpus, config, backends="partial:0.35").comparison.p_value)
    separated = [p for p in pvalues if p < 0.05]
    assert len(separated) == 19
    assert separated == pytest.approx([math.erfc(math.sqrt(3.5))] * 19, rel=1e-12)
    with pytest.raises(AssertionError, match="19 of 20 p-values below 0.05"):
        assert_calibrated(pvalues, 0.05)


def test_paper_statistic_moves_with_the_thresholds_alone(tmp_path):
    # One set of completions, re-scored from the cache: the p-value follows
    # l_max and exact_lengths, not the evidence. References are 25 whole
    # 8-word chunks of unique words, so every match is 8 words long and a
    # cohort's counts are its copied chunks at every threshold from 5 to 8,
    # and 0 above. This pins the flaw as measured.
    corpus = make_corpus(4, 4, words=1200)
    specs = {"pre": "partial:0.35", "post": "partial:0.05"}
    config = ExperimentConfig(cache_path=str(tmp_path / "cache.jsonl"))
    report = run_audit(corpus, config, backends=specs)
    copies = (report.f_pre[0], report.f_post[0])
    assert copies[0] > copies[1] > 0
    assert report.f_pre == (copies[0],) * 4 + (0,) * 4 and report.f_post == (copies[1],) * 4 + (0,) * 4
    assert report.comparison.p_value == pytest.approx(0.36131042852617884, rel=1e-12)

    # At l_max 8 the cohorts separate completely: H = 7, p = erfc(sqrt(3.5)).
    expected = {"l_max": (8, 0.008150971593502702), "exact_lengths": (True, 0.9272644735252321)}
    for field, (value, p_value) in expected.items():
        backends = {cohort: CountingBackend(backend_from_spec(spec)) for cohort, spec in specs.items()}
        rescored = run_audit(corpus, replace(config, **{field: value}), backends=backends)
        assert [backend.calls for backend in backends.values()] == [0, 0]
        assert rescored.comparison.p_value == pytest.approx(p_value, rel=1e-12)
