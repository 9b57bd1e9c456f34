from __future__ import annotations

import json
import logging
import math
import random
import re
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import msr_audit.runner as runner
from conftest import CountingBackend, FailingBackend, make_corpus, synthetic_text
from oracles import oracle_rows
from stub_server import StubServer
from msr_audit.corpus import CorpusError, Document
from msr_audit.gateway import (
    Backend,
    BackendError,
    GenerationCache,
    GenerationParams,
    ObliviousBackend,
    PartialCopyBackend,
    VerbatimBackend,
    _SYLLABLES,
    request_key,
)
from msr_audit.matching import sum_arrays
from msr_audit.runner import (
    AuditReport,
    ExperimentConfig,
    emit_report,
    report_paths,
    report_to_dict,
    low_vs_high,
    run_audit,
    sweep,
    sweep_length,
)
from msr_audit.stats import CohortComparison

SPLIT = {"pre": VerbatimBackend(), "post": ObliviousBackend()}


# ----------------------------------------------------------------- config


def test_config_defaults_match_documented_protocol():
    config = ExperimentConfig()
    assert config.shots == 6
    assert config.l_min == 5 and config.l_max == 12
    assert config.temperature == 0.1
    assert config.min_words == 1000
    assert config.system_prompt == "complete the paragraph"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"shots": 5},
        {"shots": 0},
        {"shots": -2},
        {"l_min": 0},
        {"temperature": -1.0},
        {"min_words": -1},
        {"max_in_flight": 0},
        {"truncate_words": 4, "shots": 6},
        {"truncate_words": 10, "shots": 6, "l_min": 5},  # resolved l_max 1 < l_min
        {"l_max": 4, "l_min": 5},
        {"max_tokens": 0},
        {"truncate_words": 30, "shots": 6, "l_min": 5},  # resolved l_max 5 = l_min: one threshold
        {"l_max": 5, "l_min": 5},
        {"temperature": math.nan},
        {"temperature": math.inf},
        {"temperature": -math.inf},
    ],
)
def test_config_validation_rejects(kwargs):
    with pytest.raises(ValueError):
        ExperimentConfig(**kwargs)
    with pytest.raises(ValueError):
        replace(ExperimentConfig(), **kwargs)


def test_config_params_carry_the_request_fields():
    config = ExperimentConfig(model="m", temperature=0.5, max_tokens=9, seed=4, shots=4)
    assert config.params == GenerationParams(model="m", temperature=0.5, max_tokens=9, seed=4)
    assert ExperimentConfig().params == GenerationParams()
    with pytest.raises(ValueError, match="temperature must be >= 0, got -1.0"):
        ExperimentConfig(temperature=-1.0)
    with pytest.raises(ValueError, match="max_tokens must be >= 1, got 0"):
        ExperimentConfig(max_tokens=0)


def test_run_audit_rejects_max_tokens_before_tokenizing(small_corpus, small_config, monkeypatch):
    calls = []
    monkeypatch.setattr(runner, "tokenize_document", lambda doc, **kw: calls.append(doc.id))
    with pytest.raises(ValueError, match="max_tokens"):
        run_audit(small_corpus, replace(small_config, max_tokens=0), backends=SPLIT)
    assert calls == []


def test_resolved_l_max():
    assert ExperimentConfig(l_max=12).resolved_l_max == 12
    assert ExperimentConfig(l_max=12, truncate_words=75, shots=6).resolved_l_max == 12
    assert ExperimentConfig(l_max=12, truncate_words=60, shots=6).resolved_l_max == 10


# -------------------------------------------------------------------- run_audit


def test_run_audit_separates_verbatim_from_oblivious(small_corpus, small_config):
    report = run_audit(small_corpus, small_config, backends=SPLIT)
    # each pre document regurgitates its 20-token reference: one maximal match
    assert report.f_pre == (3,) * 7
    assert report.f_post == (0,) * 7
    assert report.comparison.delta == -1.0
    assert report.comparison.ks == 1.0
    assert report.comparison.p_value < 0.001
    assert report.failures == 0
    assert report.n_docs_pre == 3 and report.n_docs_post == 3


def test_run_audit_document_summaries_follow_corpus_order(small_corpus, small_config):
    report = run_audit(small_corpus, small_config, backends=SPLIT)
    assert [d.doc_id for d in report.documents] == [d.id for d in small_corpus]
    assert {d.cohort for d in report.documents} == {"pre", "post"}
    for summary in report.documents:
        assert summary.longest_match == (20 if summary.cohort == "pre" else 0)


def test_run_audit_single_backend_for_both_cohorts(small_corpus, small_config):
    report = run_audit(small_corpus, small_config, backends=VerbatimBackend())
    assert report.f_pre == report.f_post == (3,) * 7
    assert report.comparison.delta == 0.0


def test_run_audit_builds_backend_from_config_spec(small_corpus, small_config):
    report = run_audit(small_corpus, replace(small_config, backend="oblivious"))
    assert report.f_pre == (0,) * 7


def test_run_audit_applies_min_words_filter(small_config):
    corpus = make_corpus(words=120) + [
        Document(id="tiny-pre", cohort="pre", text=synthetic_text("tp", 50)),
    ]
    report = run_audit(corpus, small_config, backends=SPLIT)  # min_words=50: 50 excluded
    assert report.n_docs_pre == 3
    assert "tiny-pre" not in [d.doc_id for d in report.documents]
    assert report.failures == 0  # filtered documents are not failures


def test_run_audit_counts_segmentation_failures(small_config):
    corpus = make_corpus(words=120) + [
        Document(id="short-pre", cohort="pre", text=synthetic_text("sp", 55)),
    ]
    config = replace(small_config, shots=60)  # 55 words pass the filter but can't fill 60 segments
    report = run_audit(corpus, config, backends=SPLIT)
    assert report.failures == 1
    assert report.n_docs_pre == 3


def test_run_audit_counts_generation_failures(small_corpus, small_config):
    backends = {
        "pre": FailingBackend(VerbatimBackend(), marker="p0w"),
        "post": ObliviousBackend(),
    }
    report = run_audit(small_corpus, small_config, backends=backends)
    assert report.failures == 1
    assert report.n_docs_pre == 2
    assert "pre-0" not in [d.doc_id for d in report.documents]


def test_run_audit_logs_failed_generation_with_document_id(small_corpus, small_config, caplog):
    backends = {
        "pre": FailingBackend(VerbatimBackend(), marker="p0w"),
        "post": ObliviousBackend(),
    }
    with caplog.at_level(logging.WARNING):
        run_audit(small_corpus, small_config, backends=backends)
    assert any("generation failed for document 'pre-0'" in r.message for r in caplog.records)


def test_run_audit_warns_on_empty_completion(small_corpus, small_config, caplog):
    class EmptyForP1(VerbatimBackend):
        def complete(self, transcript, params):
            return "" if "p1w" in transcript.reference_text else transcript.reference_text

    with caplog.at_level(logging.WARNING):
        report = run_audit(small_corpus, small_config, backends=EmptyForP1())
    messages = [r.message for r in caplog.records if "empty completion" in r.message]
    assert messages == ["empty completion for document 'pre-1'; will count as zero-match"]
    [empty] = [d for d in report.documents if d.doc_id == "pre-1"]
    assert empty.longest_match == 0 and empty.counts == (0,) * 7
    assert report.failures == 0


def test_run_audit_warns_on_whitespace_only_completion(small_corpus, small_config, caplog):
    class BlankForP1(VerbatimBackend):
        def complete(self, transcript, params):
            return " \n\t " if "p1w" in transcript.reference_text else transcript.reference_text

    with caplog.at_level(logging.WARNING):
        report = run_audit(small_corpus, small_config, backends=BlankForP1())
    messages = [r.message for r in caplog.records if "empty completion" in r.message]
    assert messages == ["empty completion for document 'pre-1'; will count as zero-match"]
    [blank] = [d for d in report.documents if d.doc_id == "pre-1"]
    assert blank.longest_match == 0 and blank.counts == (0,) * 7


def test_run_audit_interleaved_corpus_keeps_corpus_order(small_corpus, small_config):
    pre = [d for d in small_corpus if d.cohort == "pre"]
    post = [d for d in small_corpus if d.cohort == "post"]
    interleaved = [doc for pair in zip(post, pre) for doc in pair]  # post-0, pre-0, post-1, ...
    backends = {"pre": PartialCopyBackend(0.5), "post": PartialCopyBackend(0.2)}
    grouped = run_audit(small_corpus, small_config, backends=backends)
    mixed = run_audit(interleaved, small_config, backends=backends)
    assert [d.doc_id for d in mixed.documents] == [d.id for d in interleaved]
    assert sorted(mixed.documents, key=lambda d: d.doc_id) == sorted(grouped.documents, key=lambda d: d.doc_id)
    assert mixed.f_pre == grouped.f_pre and mixed.f_post == grouped.f_post
    assert mixed.comparison == grouped.comparison


def test_run_audit_keeps_corpus_order_across_skips_and_failures(small_config):
    corpus = make_corpus(words=120)
    pre = [d for d in corpus if d.cohort == "pre"]
    post = [d for d in corpus if d.cohort == "post"]
    interleaved = [doc for pair in zip(post, pre) for doc in pair]  # post-0, pre-0, post-1, ...
    interleaved.insert(3, Document(id="short-post", cohort="post", text=synthetic_text("sp", 55)))
    backends = {
        "pre": FailingBackend(PartialCopyBackend(0.5), marker="p1w"),
        "post": FailingBackend(PartialCopyBackend(0.2), marker="q2w"),
    }
    config = replace(small_config, shots=60)  # 55 words pass the filter but can't fill 60 segments
    report = run_audit(interleaved, config, backends=backends)
    lost = {"short-post", "pre-1", "post-2"}
    assert [d.doc_id for d in report.documents] == [d.id for d in interleaved if d.id not in lost]
    assert report.failures == 3
    assert (report.n_docs_pre, report.n_docs_post) == (2, 2)
    for cohort, total in (("pre", report.f_pre), ("post", report.f_post)):
        assert total == sum_arrays([d.counts for d in report.documents if d.cohort == cohort])


def test_run_audit_cohort_emptied_by_segmentation_sends_no_request(small_config):
    corpus = make_corpus(n_pre=0, n_post=3, words=120) + [
        Document(id="short-pre", cohort="pre", text=synthetic_text("sp", 55)),
    ]
    counting = {"pre": CountingBackend(VerbatimBackend()), "post": CountingBackend(ObliviousBackend())}
    with pytest.raises(CorpusError, match="'pre' is empty"):
        run_audit(corpus, replace(small_config, shots=60), backends=counting)  # 55 words < 60 segments
    assert counting["pre"].calls == 0 and counting["post"].calls == 0


def test_run_audit_empty_cohort_after_filter_is_data_error(small_config):
    corpus = make_corpus(n_pre=2, n_post=2, words=120)
    with pytest.raises(CorpusError, match="empty after filtering"):
        run_audit(corpus, replace(small_config, min_words=500), backends=SPLIT)


RUNS = {
    "run_audit": lambda corpus, config, backends: run_audit(corpus, config, backends),
    "sweep": lambda corpus, config, backends: sweep(corpus, config, "shots", [2, 4], backends),
    "sweep_length": lambda corpus, config, backends: sweep_length(corpus, config, [60, 90], backends),
}


@pytest.mark.parametrize("run", list(RUNS))
@pytest.mark.parametrize("repeat_in", ["post", "pre"])
def test_repeated_document_id_fails_before_any_backend_or_tokenization(
    small_corpus, small_config, monkeypatch, run, repeat_in
):
    # The repeat of pre-0 lands in the other cohort, or in its own one.
    corpus = [*small_corpus, Document(id="pre-0", cohort=repeat_in, text=synthetic_text("r", 120))]
    built, tokenized = [], []
    monkeypatch.setattr(runner, "backend_from_spec", lambda spec, base_url=None: built.append(spec))
    monkeypatch.setattr(runner, "tokenize_document", lambda doc, limit=None: tokenized.append(doc))
    counting = CountingBackend(VerbatimBackend())
    for backends in (None, counting):
        with pytest.raises(CorpusError, match=r"both cohorts; repeated: \['pre-0'\]"):
            RUNS[run](corpus, small_config, backends)
    assert built == [] and tokenized == [] and counting.calls == 0


def test_repeated_document_id_error_names_at_most_five(small_config):
    pre = make_corpus(n_pre=7, n_post=0)
    corpus = pre + [replace(doc, cohort="post") for doc in pre]
    with pytest.raises(CorpusError) as info:
        run_audit(corpus, small_config)
    assert str(info.value).endswith("repeated: ['pre-0', 'pre-1', 'pre-2', 'pre-3', 'pre-4']")


def test_run_audit_all_generations_failing_is_backend_error(small_corpus, small_config):
    backends = {
        "pre": FailingBackend(VerbatimBackend(), marker="w"),  # every pre reference
        "post": ObliviousBackend(),
    }
    with pytest.raises(BackendError, match="empty cohort results"):
        run_audit(small_corpus, small_config, backends=backends)


def test_run_audit_failed_cohort_sends_no_later_cohort(small_corpus, small_config):
    backends = {
        "pre": FailingBackend(VerbatimBackend(), marker="w"),  # every pre reference
        "post": CountingBackend(ObliviousBackend()),
    }
    with pytest.raises(BackendError, match="empty cohort results"):
        run_audit(small_corpus, small_config, backends=backends)
    assert backends["post"].calls == 0


def test_run_audit_rejects_incomplete_backend_mapping(small_corpus, small_config):
    with pytest.raises(ValueError, match="missing cohorts"):
        run_audit(small_corpus, small_config, backends={"pre": VerbatimBackend()})


class ClosingBackend(VerbatimBackend):
    def __init__(self) -> None:
        self.closed = 0
        self.calls = 0

    def complete(self, transcript, params):
        self.calls += 1
        return super().complete(transcript, params)

    def close(self) -> None:
        self.closed += 1


def _count_builds(monkeypatch) -> list[ClosingBackend]:
    """Make the runner build a ClosingBackend for every spec; return them."""
    built = []

    def build(spec, base_url=None):
        if spec == "bad":
            raise ValueError("unknown backend spec 'bad'")
        built.append(ClosingBackend())
        return built[-1]

    monkeypatch.setattr(runner, "backend_from_spec", build)
    return built


def test_one_spec_for_both_cohorts_builds_one_shared_backend(small_corpus, small_config, monkeypatch):
    built = _count_builds(monkeypatch)
    run_audit(small_corpus, small_config, backends={"pre": "partial:0.5", "post": "partial:0.5"})
    assert [(backend.calls, backend.closed) for backend in built] == [(6, 1)]


def test_one_spec_string_stands_for_both_cohorts(small_corpus, small_config, monkeypatch):
    # Oblivious completions share no word with the reference: 0 at each of the 7 thresholds.
    assert run_audit(small_corpus, small_config, backends="oblivious").f_pre == (0,) * 7
    assert sweep(small_corpus, small_config, "shots", [2], backends="oblivious")[2].f_pre == (0,) * 7
    built = _count_builds(monkeypatch)
    run_audit(small_corpus, small_config, backends="oblivious")
    sweep(small_corpus, small_config, "shots", [2, 4], backends="verbatim")
    assert [(backend.calls, backend.closed) for backend in built] == [(6, 1), (12, 1)]


def test_cohort_spec_beside_a_caller_backend(small_corpus, small_config, monkeypatch):
    built = _count_builds(monkeypatch)
    caller = ClosingBackend()
    run_audit(small_corpus, small_config, backends={"pre": "verbatim", "post": caller})
    assert [(backend.calls, backend.closed) for backend in built] == [(3, 1)]
    assert (caller.calls, caller.closed) == (3, 0)


def test_every_backend_built_from_cohort_specs_is_closed(small_corpus, small_config, monkeypatch):
    built = _count_builds(monkeypatch)
    specs = {"pre": "verbatim", "post": "oblivious"}
    run_audit(small_corpus, small_config, backends=specs)
    sweep(small_corpus, small_config, "shots", [2, 4], backends=specs)
    with pytest.raises(CorpusError):
        run_audit(small_corpus, replace(small_config, min_words=500), backends=specs)
    with pytest.raises(CorpusError):
        sweep(small_corpus, replace(small_config, min_words=500), "shots", [2, 4], backends=specs)
    # A spec that fails to build still closes the one built before it.
    with pytest.raises(ValueError, match="'bad'"):
        run_audit(small_corpus, small_config, backends={"pre": "verbatim", "post": "bad"})
    assert [backend.closed for backend in built] == [1] * 9


def test_run_audit_and_sweep_close_the_backend_they_build(small_corpus, small_config, monkeypatch):
    built = []

    def build(spec, base_url=None):
        built.append(ClosingBackend())
        return built[-1]

    monkeypatch.setattr(runner, "backend_from_spec", build)
    run_audit(small_corpus, small_config)
    sweep(small_corpus, small_config, "shots", [2, 4])
    with pytest.raises(CorpusError):
        run_audit(small_corpus, replace(small_config, min_words=500))
    with pytest.raises(CorpusError):
        sweep(small_corpus, replace(small_config, min_words=500), "shots", [2, 4])
    assert [backend.closed for backend in built] == [1, 1, 1, 1]


def test_run_audit_and_sweep_leave_caller_backends_open(small_corpus, small_config):
    shared = ClosingBackend()
    run_audit(small_corpus, small_config, backends=shared)
    sweep(small_corpus, small_config, "shots", [2, 4], backends={"pre": shared, "post": shared})
    assert shared.closed == 0


@pytest.mark.filterwarnings("error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")
def test_run_audit_closes_its_live_connections(small_corpus, small_config):
    with StubServer(keep_alive=True) as server:
        config = replace(small_config, backend="live", base_url=server.url, max_in_flight=2)
        report = run_audit(small_corpus, config)
    assert report.n_docs_pre == 3 and report.n_docs_post == 3
    assert len(server.requests) == 6


def test_summary_names_the_live_endpoint_without_its_query(small_corpus, small_config, tmp_path):
    with StubServer() as server:
        config = replace(small_config, backend="live", base_url=f"{server.url}/v1?key=sk-secret-123")
        run_audit(small_corpus, config, out=tmp_path)
    text = report_paths(tmp_path)["summary"].read_text(encoding="utf-8")
    assert "sk-secret" not in text
    assert json.loads(text)["config"]["base_url"] == f"{server.url}/v1"
    assert {request[0] for request in server.requests} == {"/v1/chat/completions?key=sk-secret-123"}


@pytest.mark.parametrize(
    ("base_url", "recorded"),
    [
        ("http://u:sk-secret@h:8080/v1?key=sk-secret#sk-secret", "http://h:8080/v1"),
        ("https://h/v1/", "https://h/v1/"),
        (None, None),
    ],
)
def test_report_to_dict_keeps_only_the_base_url_endpoint(small_corpus, small_config, base_url, recorded):
    report = run_audit(small_corpus, small_config, backends=SPLIT)
    report = replace(report, config=replace(report.config, base_url=base_url))
    assert report_to_dict(report)["config"]["base_url"] == recorded


def test_run_audit_truncation_shortens_references(small_corpus, small_config):
    config = replace(small_config, truncate_words=60)  # 10-token segments
    report = run_audit(small_corpus, config, backends=SPLIT)
    for summary in report.documents:
        if summary.cohort == "pre":
            assert summary.longest_match == 10
    assert len(report.f_pre) == min(small_config.l_max, 10) - small_config.l_min + 1


def _cased_corpus() -> list[Document]:
    return [
        Document(id="pre-u", cohort="pre", text=" ".join(f"Word{i}" for i in range(120))),
        Document(id="post-u", cohort="post", text=" ".join(f"Item{i}" for i in range(120))),
    ]


def test_run_audit_lowercase_normalizes_before_matching(small_config):
    class UppercasingVerbatim(VerbatimBackend):
        def complete(self, transcript, params):
            return transcript.reference_text.upper()

    config = replace(small_config, lowercase=True)
    report = run_audit(_cased_corpus(), config, backends=UppercasingVerbatim())
    # the reference and the completion are both folded when scored
    assert report.documents[0].longest_match == 20


@pytest.mark.parametrize("backend", [ObliviousBackend(), PartialCopyBackend(0.0)], ids=["oblivious", "partial:0"])
def test_fresh_words_stay_unmatched_under_lowercase(backend):
    # Capitalised words the mocks could emit in lowercase, so only forbidding
    # the folded reference keeps the completions unmatched once folded.
    rng = random.Random(0)
    words = ["".join(rng.choice(_SYLLABLES) for _ in range(3)).capitalize() for _ in range(4 * 1200)]
    docs = [
        Document(id=f"{cohort}-{j}", cohort=cohort, text=" ".join(words[j * 1200 : (j + 1) * 1200]))
        for j, cohort in enumerate(["pre", "pre", "post", "post"])
    ]
    report = run_audit(docs, ExperimentConfig(l_min=1, lowercase=True), backends=backend)
    assert [summary.longest_match for summary in report.documents] == [0, 0, 0, 0]
    assert set(report.f_pre) == set(report.f_post) == {0}


def test_run_audit_lowercase_sends_the_text_as_written(small_config):
    class Recording(VerbatimBackend):
        def __init__(self):
            self.requests = []

        def complete(self, transcript, params):
            self.requests.append((transcript, params))
            return super().complete(transcript, params)

    folded, plain = Recording(), Recording()
    run_audit(_cased_corpus(), replace(small_config, lowercase=True), backends=folded)
    run_audit(_cased_corpus(), small_config, backends=plain)
    transcript = folded.requests[0][0]
    assert transcript.turns[0].text.startswith("Word0 Word1")
    assert transcript.reference_tokens[0] == "Word100"
    assert folded.requests == plain.requests
    assert [request_key(folded, *request) for request in folded.requests] == [
        request_key(plain, *request) for request in plain.requests
    ]


def test_run_audit_uses_cache_across_runs(small_corpus, small_config, tmp_path):
    config = replace(small_config, cache_path=str(tmp_path / "cache.jsonl"))
    counting = {"pre": CountingBackend(VerbatimBackend()), "post": CountingBackend(ObliviousBackend())}
    first = run_audit(small_corpus, config, backends=counting)
    assert counting["pre"].calls == 3 and counting["post"].calls == 3
    second = run_audit(small_corpus, config, backends=counting)
    assert counting["pre"].calls == 3 and counting["post"].calls == 3  # all cache hits
    assert first.f_pre == second.f_pre and first.f_post == second.f_post


def test_run_audit_with_an_unwritable_cache_path_sends_no_request(small_corpus, small_config, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    counting = CountingBackend(VerbatimBackend())
    with pytest.raises(OSError):
        run_audit(small_corpus, replace(small_config, cache_path=str(blocker / "cache.jsonl")), backends=counting)
    assert counting.calls == 0


def test_before_requests_runs_once_after_set_up_and_before_the_first_request(small_corpus, small_config, tmp_path):
    # With out=, the report directories are made after set-up and before the first request.
    cache_path = tmp_path / "cache.jsonl"
    out = tmp_path / "out"
    seen = []

    class FirstCallBackend(CountingBackend):
        def complete(self, transcript, params):
            if not seen:
                seen.append((self.calls, cache_path.exists(), [(out / f"shots_{v}").is_dir() for v in (2, 4)]))
            return super().complete(transcript, params)

    counting = FirstCallBackend(VerbatimBackend())
    config = replace(small_config, cache_path=str(cache_path))
    sweep(small_corpus, config, "shots", [2, 4], backends=counting, out=out)
    assert seen == [(0, True, [True, True])] and counting.calls > 0
    with pytest.raises(ValueError, match="distinct"):
        sweep(small_corpus, config, "shots", [2, 2], backends=counting, out=tmp_path / "again")
    assert not (tmp_path / "again").exists()


def test_cached_run_audit_keeps_a_completion_with_a_lone_surrogate(small_corpus, small_config, tmp_path):
    # A JSON "\ud800" escape in a live response decodes to a lone surrogate,
    # which UTF-8 cannot encode.
    class SurrogateBackend(VerbatimBackend):
        def complete(self, transcript, params):
            return super().complete(transcript, params) + " \ud800"

    path = tmp_path / "cache.jsonl"
    report = run_audit(small_corpus, replace(small_config, cache_path=str(path)), backends=SurrogateBackend())
    assert report.failures == 0
    lines = [json.loads(line) for line in path.read_bytes().splitlines()]
    assert len(lines) == len(small_corpus)
    reloaded = GenerationCache(path)
    for line in lines:
        assert line["output"].endswith(" \ud800")
        assert reloaded.lookup(line["key"]) == line["output"]


def test_sweep_builds_one_cache_and_parses_each_line_once(small_corpus, small_config, tmp_path, monkeypatch):
    import msr_audit.gateway as gateway

    path = tmp_path / "cache.jsonl"
    config = replace(small_config, cache_path=str(path))
    sweep_length(small_corpus, config, [60, 90, 120], backends=SPLIT)
    filled = path.read_bytes()
    assert len(filled.splitlines()) == 3 * len(small_corpus)

    built = []
    original_cache = runner.GenerationCache
    monkeypatch.setattr(runner, "GenerationCache", lambda *args: built.append(args) or original_cache(*args))
    parsed = []
    counting_json = SimpleNamespace(dumps=json.dumps, loads=lambda text: parsed.append(text) or json.loads(text))
    monkeypatch.setattr(gateway, "json", counting_json)
    counting = {cohort: CountingBackend(backend) for cohort, backend in SPLIT.items()}
    reports = sweep_length(small_corpus, config, [60, 90, 120], backends=counting)

    assert len(reports) == 3
    assert built == [(str(path),)]
    assert len(parsed) == 3 * len(small_corpus)  # each file line once
    assert counting["pre"].calls == counting["post"].calls == 0  # every request a hit
    assert path.read_bytes() == filled


def test_runs_without_a_cache_file_build_no_cache_and_digest_nothing(small_corpus, small_config, monkeypatch):
    import msr_audit.gateway as gateway

    def no_cache(*args):
        raise AssertionError("a run without cache_path built a GenerationCache")

    keys = []
    original_key = gateway.request_key
    monkeypatch.setattr(gateway, "request_key", lambda *args: keys.append(1) or original_key(*args))
    monkeypatch.setattr(runner, "GenerationCache", no_cache)
    assert small_config.cache_path is None
    run_audit(small_corpus, small_config, backends=SPLIT)
    sweep(small_corpus, small_config, "length", [60, 90, 120], backends=SPLIT)
    assert keys == []


def test_run_audit_exact_length_mode(small_corpus, small_config):
    report = run_audit(small_corpus, replace(small_config, exact_lengths=True), backends=SPLIT)
    # the single 20-token match exceeds l_max=8, so no exact bucket counts it
    assert report.f_pre == (0,) * 7


class PrefixCopyBackend(Backend):
    """Copies the first ``keep[tag]`` words of the reference, where ``tag``
    is the ``synthetic_text`` tag of the document, then ten words no document
    has. Records each (reference, completion) token pair by tag."""

    def __init__(self, keep: dict[str, int]) -> None:
        self.keep = keep
        self.pairs: dict[str, tuple[list[str], list[str]]] = {}

    def complete(self, transcript, params) -> str:
        reference = list(transcript.reference_tokens)
        tag = reference[0].partition("w")[0]
        completion = reference[: self.keep[tag]] + [f"zz{i}" for i in range(10)]
        self.pairs[tag] = (reference, completion)
        return " ".join(completion)


def test_run_audit_longest_match_below_l_min(small_corpus, small_config):
    # p0 shares a 3-word run (below l_min = 5), p1 no word at all, p2 a
    # counted 8-word run.
    backend = PrefixCopyBackend({"p0": 3, "p1": 0, "p2": 8, "q0": 0, "q1": 4, "q2": 6})
    report = run_audit(small_corpus, replace(small_config, l_min=5), backends=backend)
    for summary in report.documents:
        tag = summary.doc_id.replace("pre-", "p").replace("post-", "q")
        rows = oracle_rows(*backend.pairs[tag])
        assert summary.longest_match == max((length for length, _, _ in rows), default=0)
        if summary.longest_match < 5:
            assert summary.counts == (0, 0, 0, 0)
    longest = {summary.doc_id: summary.longest_match for summary in report.documents}
    assert longest == {"pre-0": 3, "pre-1": 0, "pre-2": 8, "post-0": 0, "post-1": 4, "post-2": 6}
    assert report.f_pre == (1, 1, 1, 1)


# ----------------------------------------------------------------------- sweeps


def test_sweep_shots(small_corpus, small_config):
    reports = sweep(small_corpus, small_config, "shots", [2, 4, 6], backends=SPLIT)
    assert sorted(reports) == [2, 4, 6]
    for shots, report in reports.items():
        assert report.config.shots == shots
        # verbatim still produces one full-reference match per pre document
        assert report.f_pre == (3,) * 7


def test_sweep_shots_rejects_bad_values_before_running(small_corpus, small_config):
    counting = CountingBackend(VerbatimBackend())
    with pytest.raises(ValueError):
        sweep(small_corpus, small_config, "shots", [4, 3], backends=counting)
    assert counting.calls == 0
    with pytest.raises(ValueError):
        sweep(small_corpus, small_config, "shots", [], backends=counting)


def test_sweep_segments_every_value_before_the_first_request(tmp_path):
    # 60-word documents fill 2 segments but not 70, so the second value
    # empties both cohorts; no request, cache file or report directory comes first.
    counting = CountingBackend(VerbatimBackend())
    cache_path, out = tmp_path / "cache.jsonl", tmp_path / "out"
    config = ExperimentConfig(min_words=10, l_min=1, l_max=3, cache_path=str(cache_path))
    with pytest.raises(CorpusError, match="empty after filtering"):
        sweep(make_corpus(n_pre=4, n_post=4, words=60), config, "shots", [2, 70], backends=counting, out=out)
    assert counting.calls == 0
    assert not cache_path.exists() and not out.exists()


class FailsWhenHot(Backend):
    """Raises ``BackendError`` on every request above temperature 0.5; otherwise delegates."""

    def __init__(self, inner: Backend) -> None:
        self.inner, self.name, self.uses_seed = inner, inner.name, inner.uses_seed

    def complete(self, transcript, params):
        if params.temperature > 0.5:
            raise BackendError("too hot")
        return self.inner.complete(transcript, params)


def _fixed_created_at(summary_path: Path) -> bytes:
    """A written summary.json's bytes with its timestamp set to "CREATED_AT"."""
    return re.sub(rb'"created_at": "[^"]*"', b'"created_at": "CREATED_AT"', summary_path.read_bytes(), count=1)


def test_sweep_writes_each_report_before_a_later_value_fails(small_corpus, small_config, tmp_path):
    backends = {cohort: FailsWhenHot(backend) for cohort, backend in SPLIT.items()}
    with pytest.raises(BackendError, match="empty cohort results"):
        sweep(small_corpus, small_config, "temperature", [0.1, 0.7], backends=backends, out=tmp_path / "failed")
    sweep(small_corpus, small_config, "temperature", [0.1], backends=backends, out=tmp_path / "alone")
    kept, alone = tmp_path / "failed" / "temperature_0.1", tmp_path / "alone" / "temperature_0.1"
    assert (kept / "frequencies.csv").read_bytes() == (alone / "frequencies.csv").read_bytes()
    assert _fixed_created_at(kept / "summary.json") == _fixed_created_at(alone / "summary.json")
    assert not any((tmp_path / "failed" / "temperature_0.7").iterdir())


def test_sweep_temperature_two_values_adds_contrast(small_corpus, small_config):
    reports = sweep(small_corpus, small_config, "temperature", [0.1, 0.7], backends=SPLIT)
    assert sorted(reports) == [0.1, 0.7]
    contrast = low_vs_high(reports)
    assert isinstance(contrast, CohortComparison)
    # mock backends ignore temperature, so low and high runs tie exactly
    assert contrast.delta == 0.0


def test_sweep_temperature_other_counts_have_no_contrast(small_corpus, small_config):
    assert low_vs_high(sweep(small_corpus, small_config, "temperature", [0.1], backends=SPLIT)) is None
    three = sweep(small_corpus, small_config, "temperature", [0.0, 0.5, 1.0], backends=SPLIT)
    assert low_vs_high(three) is None and len(three) == 3


def test_sweep_temperature_rejects_duplicates(small_corpus, small_config):
    with pytest.raises(ValueError, match="distinct"):
        sweep(small_corpus, small_config, "temperature", [0.1, 0.1], backends=SPLIT)


@pytest.mark.parametrize(
    "dimension, values",
    [("shots", [4, 4]), ("temperature", [0.1, 0.7, 0.1]), ("length", [60, 90, 60])],
)
def test_sweep_rejects_duplicate_values_before_running(small_corpus, small_config, dimension, values):
    counting = CountingBackend(VerbatimBackend())
    with pytest.raises(ValueError, match="distinct"):
        sweep(small_corpus, small_config, dimension, values, backends=counting)
    assert counting.calls == 0


def test_sweep_rejects_unknown_dimension(small_corpus, small_config):
    with pytest.raises(ValueError, match="dimension"):
        sweep(small_corpus, small_config, "min_words", [10], backends=SPLIT)


@pytest.mark.parametrize(
    "dimension, field, values",
    [
        ("shots", "shots", [2, 4, 6]),
        ("temperature", "temperature", [0.0, 0.7]),
        ("length", "truncate_words", [60, 90, 120]),
    ],
)
def test_sweep_reports_equal_run_audit(small_corpus, small_config, dimension, field, values):
    backends = {"pre": PartialCopyBackend(0.5), "post": FailingBackend(PartialCopyBackend(0.2), "q0w")}
    reports = sweep(small_corpus, small_config, dimension, values, backends=backends)
    assert list(reports) == values
    for value, report in reports.items():
        expected = run_audit(small_corpus, replace(small_config, **{field: value}), backends=backends)
        assert report.config == expected.config
        assert report.f_pre == expected.f_pre
        assert report.f_post == expected.f_post
        assert report.comparison == expected.comparison
        assert report.documents == expected.documents
        assert report.failures == expected.failures
        assert (report.n_docs_pre, report.n_docs_post) == (expected.n_docs_pre, expected.n_docs_post)
        assert report.failures == 1  # post-0 fails at every value


def test_sweep_tokenizes_each_document_once(small_corpus, small_config, monkeypatch):
    import msr_audit.runner as runner

    calls = []
    original = runner.tokenize_document
    monkeypatch.setattr(runner, "tokenize_document", lambda doc, **kw: calls.append(doc.id) or original(doc, **kw))
    reports = sweep(small_corpus, small_config, "length", [60, 90, 120], backends=SPLIT)
    assert len(reports) == 3
    assert sorted(calls) == sorted(doc.id for doc in small_corpus)


# ------------------------------------------------------ what an audit holds


def _mixed_corpus() -> list[Document]:
    """Documents of 40-400 words over a small mixed-case vocabulary,
    separated by Unicode whitespace; some fall to the length filter."""
    rng = random.Random(17)
    separators = [" ", "  ", "\t", "\n", "\u3000", "\u00a0", "\x85", "\u2028"]
    docs = []
    for i in range(12):
        cohort = ("pre", "post")[i % 2]
        words = [f"{rng.choice('wW')}{rng.randrange(30)}" for _ in range(rng.randrange(40, 400))]
        text = "".join(word + rng.choice(separators) for word in words)
        docs.append(Document(id=f"{cohort}-{i}", cohort=cohort, text=text))
    return docs


_MIXED_BACKENDS = {"pre": PartialCopyBackend(0.6), "post": PartialCopyBackend(0.2)}


def _recording_tokenize(monkeypatch) -> list[tuple[str, int]]:
    """Patch the runner's tokenize_document to record (doc id, spans kept)."""
    kept = []
    original = runner.tokenize_document

    def recording(doc, **kwargs):
        tokenized = original(doc, **kwargs)
        kept.append((doc.id, len(tokenized.tokens)))
        return tokenized

    monkeypatch.setattr(runner, "tokenize_document", recording)
    return kept


def _run(dimension, changes, values):
    config = replace(ExperimentConfig(min_words=50, l_min=2, l_max=8, shots=6), **changes)
    if dimension is None:
        return {None: run_audit(_mixed_corpus(), config, backends=_MIXED_BACKENDS)}
    return sweep(_mixed_corpus(), config, dimension, values, backends=_MIXED_BACKENDS)


@pytest.mark.parametrize(
    "dimension, changes, values, limit",
    [
        pytest.param(None, {"truncate_words": 60}, None, 60, id="audit-truncate"),
        pytest.param(None, {"truncate_words": 60, "min_words": 100}, None, 101, id="audit-min-words"),
        pytest.param("length", {}, [60, 90, 120], 120, id="sweep-length"),
        pytest.param("shots", {"truncate_words": 90}, [2, 6], 90, id="sweep-shots"),
        pytest.param("length", {}, [60, None], None, id="sweep-length-whole"),  # None reads every word
    ],
)
def test_runs_tokenize_each_document_once_up_to_the_word_limit(monkeypatch, dimension, changes, values, limit):
    kept = _recording_tokenize(monkeypatch)
    _run(dimension, changes, values)
    words = {doc.id: len(doc.text.split()) for doc in _mixed_corpus()}
    assert sorted(doc_id for doc_id, _ in kept) == sorted(words)
    assert dict(kept) == {doc_id: min(n, limit or n) for doc_id, n in words.items()}


def _emitted(reports, out) -> dict:
    """Each report's frequencies.csv and summary.json bytes, less created_at."""
    emitted = {}
    for value, report in reports.items():
        paths = emit_report(report, out / str(value))
        summary = re.sub(rb'"created_at": "[^"]*"', b"", paths["summary"].read_bytes())
        emitted[value] = (paths["frequencies"].read_bytes(), summary)
    return emitted


@pytest.mark.parametrize(
    "dimension, changes, values",
    [
        pytest.param(None, {"truncate_words": 60}, None, id="audit-truncate"),
        pytest.param(None, {"truncate_words": 60, "lowercase": True}, None, id="audit-lowercase-truncate"),
        pytest.param(None, {"truncate_words": 60, "min_words": 100}, None, id="audit-min-words"),
        pytest.param(None, {}, None, id="audit"),
        pytest.param("length", {}, [60, 90, 120], id="sweep-length"),
    ],
)
def test_word_limit_leaves_outputs_byte_identical(tmp_path, monkeypatch, dimension, changes, values):
    limited = _emitted(_run(dimension, changes, values), tmp_path / "limited")
    monkeypatch.setattr(runner, "_word_limit", lambda configs: None)
    whole = _emitted(_run(dimension, changes, values), tmp_path / "whole")
    assert limited == whole
    assert any(b",0,0\n" not in csv for csv, _ in limited.values())  # the runs count matches


def test_audit_releases_pre_transcripts_before_the_post_batch(small_corpus, small_config, monkeypatch):
    pre_refs: list[weakref.ref] = []
    alive_at_post = []
    original = runner.generate_batch

    def watching(backend, transcripts, *args, **kwargs):
        if pre_refs:
            alive_at_post.append(sum(ref() is not None for ref in pre_refs))
        else:
            pre_refs.extend(map(weakref.ref, transcripts))
        return original(backend, transcripts, *args, **kwargs)

    monkeypatch.setattr(runner, "generate_batch", watching)
    run_audit(small_corpus, small_config, backends=SPLIT)
    assert len(pre_refs) == 3
    assert alive_at_post == [0]

    # A failed generation holds no frame, so its transcript is released too.
    pre_refs.clear()
    alive_at_post.clear()
    failing = {**SPLIT, "pre": FailingBackend(VerbatimBackend(), marker="p0w")}
    report = run_audit(small_corpus, small_config, backends=failing)
    assert report.failures == 1
    assert len(pre_refs) == 3
    assert alive_at_post == [0]


def test_truncated_audit_memory_follows_the_truncation_not_the_document():
    corpus = make_corpus(n_pre=2, n_post=2, words=40_000)
    config = ExperimentConfig(truncate_words=1200)  # min_words 1000: the first 1,200 words are read
    run_audit(make_corpus(n_pre=2, n_post=2, words=1300), config, backends=SPLIT)  # warm-up
    tracemalloc.start()
    try:
        report = run_audit(corpus, config, backends=SPLIT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.n_docs_pre == report.n_docs_post == 2
    assert peak < 2**20, f"audit peak {peak / 2**20:.2f} MB"


def test_sweep_length(small_corpus, small_config):
    reports = sweep_length(small_corpus, small_config, [60, 90, 120], backends=SPLIT)
    for length, report in reports.items():
        assert report.config.truncate_words == length
        assert len(report.f_pre) == min(small_config.l_max, length // small_config.shots) - small_config.l_min + 1


def test_sweep_length_rejects_impossible_lengths_upfront(small_corpus, small_config):
    counting = CountingBackend(VerbatimBackend())
    with pytest.raises(ValueError):
        sweep_length(small_corpus, small_config, [60, 5], backends=counting)  # 5 < 6 shots
    assert counting.calls == 0


# ---------------------------------------------------------------------- reports


def test_emit_report_files(small_corpus, small_config, tmp_path):
    report = run_audit(small_corpus, small_config, backends=SPLIT)
    paths = emit_report(report, tmp_path / "out")
    assert paths["summary"].name == "summary.json"
    assert paths["frequencies"].name == "frequencies.csv"

    summary = json.loads(paths["summary"].read_text())
    assert summary["config"]["shots"] == 6
    assert summary["created_at"]
    assert summary["comparison"]["delta"] == -1.0
    assert summary["f_pre"]["counts"] == [3] * 7
    assert len(summary["documents"]) == 6

    lines = paths["frequencies"].read_text().splitlines()
    assert lines[0] == "k,count_pre,count_post"
    assert lines[1] == "2,3,0"
    assert len(lines) == 1 + 7


def test_emit_report_csv_is_deterministic(small_corpus, small_config, tmp_path):
    first = emit_report(run_audit(small_corpus, small_config, backends=SPLIT), tmp_path / "a")
    second = emit_report(run_audit(small_corpus, small_config, backends=SPLIT), tmp_path / "b")
    assert first["frequencies"].read_bytes() == second["frequencies"].read_bytes()


def test_emit_report_refuses_empty_cohort(small_corpus, small_config, tmp_path):
    report = run_audit(small_corpus, small_config, backends=SPLIT)
    hollow = replace(report, n_docs_post=0)
    out = tmp_path / "nope"
    with pytest.raises(CorpusError, match="empty cohort"):
        emit_report(hollow, out)
    assert not out.exists()


def test_report_to_dict_is_json_serializable(small_corpus, small_config):
    report = run_audit(small_corpus, small_config, backends=SPLIT)
    payload = json.dumps(report_to_dict(report))
    assert "comparison" in json.loads(payload)


# --------------------------------------------------------------- output goldens

GOLDENS = Path(__file__).resolve().parent / "goldens"
GOLDEN_CONFIG = ExperimentConfig(min_words=100, shots=6, l_min=3, l_max=8, seed=3)


class GappingBackend(Backend):
    """When the reference holds ``marker``, returns it with every third word
    replaced by a word it lacks, so no run is longer than two words and the
    longest match comes from the fallback; otherwise delegates."""

    def __init__(self, inner: Backend, marker: str) -> None:
        self.inner, self.marker = inner, marker
        self.name, self.uses_seed = inner.name, inner.uses_seed

    def complete(self, transcript, params):
        if self.marker in transcript.reference_text:
            return " ".join("gap" if i % 3 == 2 else w for i, w in enumerate(transcript.reference_tokens))
        return self.inner.complete(transcript, params)


def _golden_corpus() -> list[Document]:
    """4 + 4 documents of 300 words from 5 words in two cases, so copied
    chunks also match elsewhere and case folding adds matches. The last word
    of pre-3 makes its request fail; that of post-2 gets it gapped."""
    rng = random.Random(11)
    ends = {"pre-3": "FAILME", "post-2": "GAPME"}
    docs = []
    for cohort in ("pre", "post"):
        for i in range(4):
            doc_id = f"{cohort}-{i}"
            words = [rng.choice("wW") + str(rng.randrange(5)) for _ in range(299)]
            docs.append(Document(doc_id, cohort, " ".join([*words, ends.get(doc_id, "end")])))
    return docs


GOLDEN_BACKENDS = {
    "pre": FailingBackend(PartialCopyBackend(0.6), marker="FAILME"),
    "post": GappingBackend(PartialCopyBackend(0.2), marker="GAPME"),
}


def _emit_golden_runs(out) -> list[AuditReport]:
    """Writes an audit (exact lengths, case folded) and a two-value length
    sweep (whose 36-word value caps l_max at 6) under ``out``, each with a
    fixed ``created_at``."""
    corpus = _golden_corpus()
    config = replace(GOLDEN_CONFIG, exact_lengths=True, lowercase=True)
    runs = {"audit": run_audit(corpus, config, GOLDEN_BACKENDS)}
    runs.update(
        (f"sweep/length_{value}", report)
        for value, report in sweep(corpus, GOLDEN_CONFIG, "length", [120, 36], GOLDEN_BACKENDS).items()
    )
    for name, report in runs.items():
        emit_report(replace(report, created_at="CREATED_AT"), out / name)
    return list(runs.values())


def test_summary_and_frequencies_match_the_goldens_byte_for_byte(tmp_path):
    audit, long_cut, short_cut = _emit_golden_runs(tmp_path)
    by_id = {summary.doc_id: summary for summary in audit.documents}
    assert "pre-3" not in by_id and audit.failures == 1
    assert 0 < by_id["post-2"].longest_match < GOLDEN_CONFIG.l_min
    assert (long_cut.config.resolved_l_max, short_cut.config.resolved_l_max) == (8, 6)
    written = {path.relative_to(tmp_path): path.read_bytes() for path in sorted(tmp_path.rglob("*.*"))}
    golden = {path.relative_to(GOLDENS): path.read_bytes() for path in sorted(GOLDENS.rglob("*.*"))}
    assert len(written) == 6 and written == golden
    # The runner writes the same files itself when given out=.
    corpus, by_runner = _golden_corpus(), tmp_path / "by_runner"
    audit_config = replace(GOLDEN_CONFIG, exact_lengths=True, lowercase=True)
    run_audit(corpus, audit_config, GOLDEN_BACKENDS, out=by_runner / "audit")
    sweep(corpus, GOLDEN_CONFIG, "length", [120, 36], GOLDEN_BACKENDS, out=by_runner / "sweep")
    runner_written = {
        path.relative_to(by_runner): _fixed_created_at(path) if path.name == "summary.json" else path.read_bytes()
        for path in sorted(by_runner.rglob("*.*"))
    }
    assert runner_written == golden
