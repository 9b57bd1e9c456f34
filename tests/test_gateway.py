from __future__ import annotations

import json
import logging
import socket
import threading
from contextlib import closing

import pytest

from conftest import CountingBackend, FailingBackend
from stub_server import StubServer, completion_body
from msr_audit.corpus import Document, tokenize_document
from msr_audit.gateway import (
    Backend,
    BackendError,
    GenerationCache,
    GenerationParams,
    GenerationRecord,
    LiveBackend,
    ObliviousBackend,
    PartialCopyBackend,
    VerbatimBackend,
    backend_from_spec,
    generate_batch,
    request_key,
    resolve_max_tokens,
    transcript_messages,
)
from msr_audit.matching import maximal_common_substrings
from msr_audit.prompting import GeneratedCompletion, build_transcript, segment

# A backend must not leave sockets for the garbage collector to close.
pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
]


def _transcript(n_words=60, shots=6, tag="w"):
    text = " ".join(f"{tag}{i}" for i in range(n_words))
    doc = tokenize_document(Document(id=f"doc-{tag}", cohort="pre", text=text))
    return build_transcript(doc, segment(doc, shots))


# ------------------------------------------------------------- request plumbing


def test_transcript_messages_roles_and_order():
    transcript = _transcript(60, 6)
    messages = transcript_messages(transcript)
    assert messages[0] == {"role": "system", "content": transcript.system_prompt}
    assert [m["role"] for m in messages[1:]] == ["user", "assistant", "user", "assistant", "user"]
    assert all(transcript.reference_text != m["content"] for m in messages)


def test_resolve_max_tokens():
    transcript = _transcript(60, 6)  # 10-token reference
    assert resolve_max_tokens(transcript, GenerationParams()) == 15
    assert resolve_max_tokens(transcript, GenerationParams(max_tokens=7)) == 7


def test_generation_params_validation():
    with pytest.raises(ValueError):
        GenerationParams(temperature=-0.5)
    with pytest.raises(ValueError):
        GenerationParams(max_tokens=0)


def test_request_key_sensitivity():
    transcript = _transcript()
    backend = VerbatimBackend()
    base = request_key(backend, transcript, GenerationParams())
    assert base == request_key(backend, transcript, GenerationParams())
    assert base != request_key(backend, transcript, GenerationParams(temperature=0.9))
    assert base != request_key(backend, transcript, GenerationParams(model="other"))
    assert base != request_key(backend, transcript, GenerationParams(max_tokens=99))
    assert base != request_key(backend, _transcript(tag="v"), GenerationParams())
    assert base != request_key(ObliviousBackend(), transcript, GenerationParams())


def test_request_key_seed_only_matters_for_seeded_backends():
    transcript = _transcript()
    seeded, unseeded = GenerationParams(seed=1), GenerationParams(seed=2)
    assert request_key(VerbatimBackend(), transcript, seeded) == request_key(
        VerbatimBackend(), transcript, unseeded
    )
    assert request_key(ObliviousBackend(), transcript, seeded) != request_key(
        ObliviousBackend(), transcript, unseeded
    )


# --------------------------------------------------------------- mock backends


def test_verbatim_backend_echoes_reference():
    transcript = _transcript()
    assert VerbatimBackend().complete(transcript, GenerationParams()) == transcript.reference_text


def test_oblivious_backend_shares_no_tokens():
    transcript = _transcript()
    out = ObliviousBackend().complete(transcript, GenerationParams())
    gen_tokens = out.split()
    assert len(gen_tokens) == len(transcript.reference_tokens)
    assert not set(gen_tokens) & set(transcript.reference_tokens)
    assert maximal_common_substrings(transcript.reference_tokens, gen_tokens).tolist() == []


def test_oblivious_backend_is_deterministic_per_seed():
    transcript = _transcript()
    backend = ObliviousBackend()
    first = backend.complete(transcript, GenerationParams(seed=3))
    assert backend.complete(transcript, GenerationParams(seed=3)) == first
    assert ObliviousBackend().complete(transcript, GenerationParams(seed=3)) == first
    assert backend.complete(transcript, GenerationParams(seed=4)) != first


def test_partial_copy_validation():
    with pytest.raises(ValueError):
        PartialCopyBackend(-0.1)
    with pytest.raises(ValueError):
        PartialCopyBackend(1.5)
    with pytest.raises(ValueError):
        PartialCopyBackend(0.5, chunk_words=0)
    assert PartialCopyBackend(0.5).name == "partial:0.5"


def test_partial_copy_p0_is_oblivious_like():
    transcript = _transcript()
    out = PartialCopyBackend(0.0).complete(transcript, GenerationParams())
    assert not set(out.split()) & set(transcript.reference_tokens)


def test_partial_copy_p1_yields_isolated_chunk_matches():
    transcript = _transcript(120, 6)  # 20-token reference, chunks of 8: [8, 8, 4]
    out = PartialCopyBackend(1.0, chunk_words=8).complete(transcript, GenerationParams())
    matches = maximal_common_substrings(transcript.reference_tokens, out.split())
    assert matches[:, 0].tolist() == [8, 8, 4]
    assert matches[:, 1].tolist() == [0, 8, 16]


def test_partial_copy_fraction_tracks_p():
    transcript = _transcript(24006, 6)  # 4001-token reference
    for p in (0.2, 0.5, 0.8):
        backend = PartialCopyBackend(p, chunk_words=1)
        out = backend.complete(transcript, GenerationParams(seed=0)).split()
        ref = transcript.reference_tokens
        copied = sum(1 for i, tok in enumerate(ref) if out[2 * i] == tok)
        assert copied / len(ref) == pytest.approx(p, abs=0.05)


def test_partial_copy_deterministic_and_call_order_independent():
    t1, t2 = _transcript(tag="a"), _transcript(tag="b")
    backend = PartialCopyBackend(0.5)
    params = GenerationParams(seed=9)
    out1, out2 = backend.complete(t1, params), backend.complete(t2, params)
    # reversed call order and a fresh instance reproduce identical outputs
    fresh = PartialCopyBackend(0.5)
    assert fresh.complete(t2, params) == out2
    assert fresh.complete(t1, params) == out1


# ------------------------------------------------------------------------ cache


def _record(key, output="gen text"):
    return GenerationRecord(
        request_key=key,
        output_text=output,
        backend_name="verbatim",
        params=GenerationParams(),
        created_at="2026-01-01T00:00:00+00:00",
    )


def test_cache_first_write_wins():
    cache = GenerationCache()
    first = cache.store(_record("k1", "first"))
    second = cache.store(_record("k1", "second"))
    assert second is first
    assert cache.lookup("k1").output_text == "first"
    assert cache.lookup("missing") is None
    assert len(cache) == 1


def test_cache_persists_jsonl_round_trip(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = GenerationCache(path)
    cache.store(_record("k1", "hello"))
    cache.store(_record("k2", "world"))

    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [set(line) for line in lines] == [
        {"key", "output", "backend", "model", "temperature", "max_tokens", "seed", "created_at"}
    ] * 2

    reloaded = GenerationCache(path)
    assert reloaded.lookup("k1").output_text == "hello"
    assert reloaded.lookup("k2").output_text == "world"
    assert len(reloaded) == 2


def test_cache_round_trips_params(tmp_path):
    path = tmp_path / "cache.jsonl"
    params = GenerationParams(model="m", temperature=0.7, max_tokens=42, seed=9)
    record = GenerationRecord(
        request_key="k1",
        output_text="out",
        backend_name="partial:0.5",
        params=params,
        created_at="2026-01-01T00:00:00+00:00",
    )
    GenerationCache(path).store(record)
    assert GenerationCache(path).lookup("k1").params == params


def test_cache_loads_lines_without_seed_or_max_tokens(tmp_path):
    path = tmp_path / "cache.jsonl"
    old_line = {
        "key": "k1",
        "output": "kept",
        "backend": "verbatim",
        "model": "mock",
        "temperature": 0.1,
        "created_at": "2026-01-01T00:00:00+00:00",
    }
    path.write_text(json.dumps(old_line) + "\n", encoding="utf-8")
    params = GenerationCache(path).lookup("k1").params
    assert params == GenerationParams(model="mock", temperature=0.1, max_tokens=None, seed=None)


def test_cache_skips_corrupt_lines(tmp_path, caplog):
    path = tmp_path / "cache.jsonl"
    good = json.dumps(
        {
            "key": "k1",
            "output": "kept",
            "backend": "verbatim",
            "model": "mock",
            "temperature": 0.1,
            "created_at": "2026-01-01T00:00:00+00:00",
        }
    )
    path.write_text("{broken\n" + good + "\n" + '{"key": "k2"}\n', encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        cache = GenerationCache(path)
    assert len(cache) == 1
    assert cache.lookup("k1").output_text == "kept"
    assert sum("corrupt cache line" in r.message for r in caplog.records) == 2


def _assert_line_skipped_and_rerequested(tmp_path, caplog, **overrides):
    transcript = _transcript()
    backend = CountingBackend(VerbatimBackend())
    params = GenerationParams()
    line = {
        "key": request_key(backend, transcript, params),
        "output": "cached",
        "backend": backend.name,
        "model": params.model,
        "temperature": params.temperature,
        "created_at": "2026-01-01T00:00:00+00:00",
        **overrides,
    }
    path = tmp_path / "cache.jsonl"
    path.write_text(json.dumps(line) + "\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        cache = GenerationCache(path)
    assert len(cache) == 0
    assert any("corrupt cache line" in r.message for r in caplog.records)
    [record] = generate_batch(backend, [transcript], params, cache=cache)
    assert backend.calls == 1
    assert record.output_text == transcript.reference_text


@pytest.mark.parametrize("field", ["key", "output", "backend", "model", "created_at"])
def test_cache_skips_line_with_non_string_field(tmp_path, caplog, field):
    _assert_line_skipped_and_rerequested(tmp_path, caplog, **{field: 5})


@pytest.mark.parametrize(
    "field, value",
    [
        ("temperature", True),
        ("temperature", "0.1"),
        ("max_tokens", 2.5),
        ("max_tokens", False),
        ("seed", "x"),
        ("seed", True),
    ],
)
def test_cache_skips_line_with_mistyped_param(tmp_path, caplog, field, value):
    _assert_line_skipped_and_rerequested(tmp_path, caplog, **{field: value})


def test_cache_duplicate_key_in_file_keeps_first(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = GenerationCache(path)
    cache.store(_record("k1", "first"))
    # simulate a concurrent writer appending the same key again
    with path.open("a", encoding="utf-8") as handle:
        handle.write(
            json.dumps(
                {
                    "key": "k1",
                    "output": "second",
                    "backend": "verbatim",
                    "model": "mock",
                    "temperature": 0.1,
                    "created_at": "2026-01-02T00:00:00+00:00",
                }
            )
            + "\n"
        )
    assert GenerationCache(path).lookup("k1").output_text == "first"


# --------------------------------------------------------------- generate APIs


def test_generate_returns_tokenized_completion():
    transcript = _transcript()
    [record] = generate_batch(VerbatimBackend(), [transcript], GenerationParams())
    completion = GeneratedCompletion.from_text(record.output_text)
    assert completion.text == transcript.reference_text
    assert completion.tokens == transcript.reference_tokens


def test_generate_uses_cache():
    transcript = _transcript()
    backend = CountingBackend(VerbatimBackend())
    cache = GenerationCache()
    params = GenerationParams()
    generate_batch(backend, [transcript], params, cache=cache)
    generate_batch(backend, [transcript], params, cache=cache)
    assert backend.calls == 1
    generate_batch(backend, [transcript], params)  # no cache: hits the backend again
    assert backend.calls == 2


def test_generate_batch_returns_stored_output_on_cache_hit():
    transcript = _transcript()
    cache = GenerationCache()
    params = GenerationParams()
    backend = CountingBackend(VerbatimBackend())
    [stored] = generate_batch(backend, [transcript], params, cache=cache)
    [hit] = generate_batch(backend, [transcript], params, cache=cache)
    assert backend.calls == 1
    assert hit is stored
    assert hit.output_text == transcript.reference_text


def test_generate_batch_never_caches_failures():
    transcript = _transcript(tag="bad")
    cache = GenerationCache()
    params = GenerationParams()
    [failed] = generate_batch(FailingBackend(VerbatimBackend(), marker="bad"), [transcript], params, cache=cache)
    assert not failed.ok and len(cache) == 0
    assert failed.request_key == request_key(VerbatimBackend(), transcript, params)
    backend = CountingBackend(VerbatimBackend())
    [retried] = generate_batch(backend, [transcript], params, cache=cache)
    assert retried.ok and backend.calls == 1


def test_generate_batch_computes_request_key_once_per_item(monkeypatch):
    import msr_audit.gateway as gateway

    calls = []
    original = gateway.request_key
    monkeypatch.setattr(gateway, "request_key", lambda *args: calls.append(1) or original(*args))
    transcripts = [_transcript(tag="ok"), _transcript(tag="bad")]
    backend = FailingBackend(VerbatimBackend(), marker="bad")
    records = generate_batch(backend, transcripts, GenerationParams(), cache=GenerationCache())
    assert [r.ok for r in records] == [True, False]
    assert len(calls) == 2


def test_generate_batch_alignment():
    transcripts = [_transcript(tag=f"t{i}") for i in range(5)]
    params = GenerationParams(seed=1)
    records = generate_batch(ObliviousBackend(), transcripts, params, max_in_flight=3)
    assert len(records) == 5
    for transcript, record in zip(transcripts, records):
        assert record.ok
        assert record.output_text == ObliviousBackend().complete(transcript, params)


def test_generate_batch_captures_per_item_failures():
    transcripts = [_transcript(tag="ok1"), _transcript(tag="bad"), _transcript(tag="ok2")]
    backend = FailingBackend(VerbatimBackend(), marker="bad")
    records = generate_batch(backend, transcripts, GenerationParams())
    assert [r.ok for r in records] == [True, False, True]
    assert "synthetic failure" in records[1].error
    assert records[0].output_text == transcripts[0].reference_text


def test_generate_batch_validation_and_empty():
    with pytest.raises(ValueError):
        generate_batch(VerbatimBackend(), [_transcript()], GenerationParams(), max_in_flight=0)
    assert generate_batch(VerbatimBackend(), [], GenerationParams()) == []


def test_generate_batch_skips_cached_entries():
    transcripts = [_transcript(tag=f"t{i}") for i in range(10)]
    params = GenerationParams()
    cache = GenerationCache()
    generate_batch(VerbatimBackend(), transcripts[:4], params, cache=cache)

    backend = CountingBackend(VerbatimBackend())
    records = generate_batch(backend, transcripts, params, cache=cache)
    assert backend.calls == 6
    assert all(r.ok for r in records)
    assert [r.output_text for r in records] == [t.reference_text for t in transcripts]


# -------------------------------------------------------------- batch dispatch


def test_generate_batch_runs_cpu_bound_backends_on_the_calling_thread():
    threads = []

    class ThreadRecording(VerbatimBackend):
        def complete(self, transcript, params):
            threads.append(threading.get_ident())
            return super().complete(transcript, params)

    transcripts = [_transcript(tag=f"t{i}") for i in range(4)]
    records = generate_batch(ThreadRecording(), transcripts, GenerationParams(), max_in_flight=4)
    assert [r.output_text for r in records] == [t.reference_text for t in transcripts]
    assert threads == [threading.get_ident()] * 4


def test_generate_batch_overlaps_backends_that_wait_on_io():
    assert LiveBackend.waits_on_io and not VerbatimBackend.waits_on_io
    barrier = threading.Barrier(2, timeout=5)

    class Rendezvous(Backend):
        name = "rendezvous"
        waits_on_io = True

        def complete(self, transcript, params):
            barrier.wait()  # returns only once both requests are in flight
            return transcript.reference_text

    transcripts = [_transcript(tag="a"), _transcript(tag="b")]
    records = generate_batch(Rendezvous(), transcripts, GenerationParams(), max_in_flight=2)
    assert [r.output_text for r in records] == [t.reference_text for t in transcripts]


# ---------------------------------------------------------------- live backend


def test_live_backend_success_request_shape():
    transcript = _transcript()
    with StubServer([(200, completion_body("echoed text"))]) as server:
        backend = LiveBackend(server.url + "/", api_key="sk-test")
        out = backend.complete(transcript, GenerationParams(model="gpt-x", temperature=0.3))
    assert out == "echoed text"
    path, headers, body = server.requests[0]
    assert path == "/chat/completions"
    assert headers["Authorization"] == "Bearer sk-test"
    assert body["model"] == "gpt-x"
    assert body["temperature"] == 0.3
    assert body["max_tokens"] == resolve_max_tokens(transcript, GenerationParams())
    assert body["messages"] == transcript_messages(transcript)


def test_live_backend_no_auth_header_without_key():
    with StubServer() as server:
        LiveBackend(server.url).complete(_transcript(), GenerationParams())
    assert "Authorization" not in server.requests[0][1]


def test_live_backend_retries_429_with_backoff():
    sleeps = []
    script = [(429, {"error": "slow down"}), (200, completion_body("ok"))]
    with StubServer(script) as server:
        backend = LiveBackend(server.url, sleep=sleeps.append)
        assert backend.complete(_transcript(), GenerationParams()) == "ok"
    assert len(server.requests) == 2
    assert len(sleeps) == 1
    assert 0.5 <= sleeps[0] < 1.5  # base 1s with jitter in [0.5, 1.5)


def test_live_backend_retries_5xx_with_exponential_delays():
    sleeps = []
    script = [(500, "boom"), (503, "busy"), (200, completion_body("ok"))]
    with StubServer(script) as server:
        backend = LiveBackend(server.url, sleep=sleeps.append)
        assert backend.complete(_transcript(), GenerationParams()) == "ok"
    assert len(sleeps) == 2
    assert 0.5 <= sleeps[0] < 1.5
    assert 1.0 <= sleeps[1] < 3.0  # doubled base, same jitter band


def test_live_backend_exhausts_retry_budget():
    sleeps = []
    with StubServer([(500, "boom")] * 5) as server:
        backend = LiveBackend(server.url, sleep=sleeps.append)
        with pytest.raises(BackendError, match="after 5 attempts"):
            backend.complete(_transcript(), GenerationParams())
    assert len(server.requests) == 5
    assert len(sleeps) == 4


def test_live_backend_client_error_fails_immediately():
    sleeps = []
    with StubServer([(400, {"error": "bad request"})]) as server:
        backend = LiveBackend(server.url, sleep=sleeps.append)
        with pytest.raises(BackendError, match="HTTP 400"):
            backend.complete(_transcript(), GenerationParams())
    assert len(server.requests) == 1
    assert sleeps == []


@pytest.mark.parametrize(
    "body",
    ["{not json", {"choices": []}, {"choices": [{"message": {}}]}, {"choices": [{"message": {"content": 5}}]}],
)
def test_live_backend_malformed_body_fails_immediately(body):
    with StubServer([(200, body)]) as server:
        backend = LiveBackend(server.url)
        with pytest.raises(BackendError):
            backend.complete(_transcript(), GenerationParams())
    assert len(server.requests) == 1


def test_live_backend_connection_error_retries_then_fails():
    # allocate a port and close it so connections are refused
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()

    sleeps = []
    backend = LiveBackend(f"http://127.0.0.1:{port}", max_attempts=3, sleep=sleeps.append)
    with pytest.raises(BackendError, match="network error"):
        backend.complete(_transcript(), GenerationParams())
    assert len(sleeps) == 2


def test_live_backend_batch_mixes_success_and_failure():
    transcripts = [_transcript(tag=f"t{i}") for i in range(3)]
    script = [(200, completion_body("one")), (400, {"error": "no"}), (200, completion_body("three"))]
    with StubServer(script) as server:
        backend = LiveBackend(server.url)
        records = generate_batch(backend, transcripts, GenerationParams(), max_in_flight=1)
    assert [r.ok for r in records] == [True, False, True]
    assert records[0].output_text == "one"
    assert records[2].output_text == "three"
    assert len(server.requests) == 3


def test_live_backend_requires_url():
    with pytest.raises(ValueError):
        LiveBackend("")


@pytest.mark.parametrize("url", ["ftp://example.test/v1", "example.test/v1", "http:///v1", "http://host:port"])
def test_live_backend_rejects_bad_url(url):
    with pytest.raises(ValueError):
        LiveBackend(url)


def test_live_backend_reuses_keep_alive_connections():
    transcripts = [_transcript(tag=f"t{i}") for i in range(20)]
    with StubServer(keep_alive=True) as server, closing(LiveBackend(server.url)) as backend:
        for half in (transcripts[:10], transcripts[10:]):
            records = generate_batch(backend, half, GenerationParams(), max_in_flight=2)
            assert all(r.ok for r in records)
    assert len(server.requests) == 20
    assert len(set(server.ports)) <= 2


def test_live_backend_close_drops_idle_connections():
    with StubServer(keep_alive=True) as server, closing(LiveBackend(server.url)) as backend:
        backend.complete(_transcript(), GenerationParams())
        backend.complete(_transcript(), GenerationParams())
        backend.close()
        backend.complete(_transcript(), GenerationParams())
    assert len(server.requests) == 3
    first, reused, redialled = server.ports
    assert reused == first and redialled != first


def test_live_backend_redials_a_connection_the_server_closed():
    sleeps = []
    with StubServer(keep_alive=True, hang_up=True) as server, closing(
        LiveBackend(server.url, sleep=sleeps.append)
    ) as backend:
        for _ in range(3):
            assert backend.complete(_transcript(), GenerationParams()) == "fallback"
    assert sleeps == []
    assert len(server.requests) == 3


def test_live_backend_timeout_is_a_retried_network_error():
    sleeps = []
    with socket.create_server(("127.0.0.1", 0)) as silent:  # accepts, never answers
        port = silent.getsockname()[1]
        backend = LiveBackend(f"http://127.0.0.1:{port}", timeout=0.2, max_attempts=2, sleep=sleeps.append)
        with pytest.raises(BackendError, match="network error"):
            backend.complete(_transcript(), GenerationParams())
    assert len(sleeps) == 1


# ------------------------------------------------------------ backend_from_spec


def test_backend_from_spec_mocks():
    assert isinstance(backend_from_spec("verbatim"), VerbatimBackend)
    assert isinstance(backend_from_spec("oblivious"), ObliviousBackend)
    partial = backend_from_spec("partial:0.25")
    assert isinstance(partial, PartialCopyBackend) and partial.p == 0.25


@pytest.mark.parametrize("spec", ["partial:xyz", "partial:2.0", "greedy", ""])
def test_backend_from_spec_rejects_bad_specs(spec):
    with pytest.raises(ValueError):
        backend_from_spec(spec)


def test_backend_from_spec_live_needs_url(monkeypatch):
    monkeypatch.delenv("MSR_BASE_URL", raising=False)
    with pytest.raises(ValueError, match="MSR_BASE_URL"):
        backend_from_spec("live")


def test_backend_from_spec_live_reads_environment(monkeypatch):
    monkeypatch.setenv("MSR_BASE_URL", "http://example.test/v1/")
    monkeypatch.setenv("MSR_API_KEY", "sk-env")
    backend = backend_from_spec("live")
    assert isinstance(backend, LiveBackend)
    assert backend.url == "http://example.test/v1/chat/completions"
    assert backend.api_key == "sk-env"

    explicit = backend_from_spec("live", base_url="http://other.test", api_key="sk-flag")
    assert explicit.url == "http://other.test/chat/completions"
    assert explicit.api_key == "sk-flag"
