from __future__ import annotations

import json
import logging
import math
import socket
import ssl
import threading
from contextlib import closing
from datetime import datetime

import pytest

from conftest import UNICODE_TEXT, CountingBackend, FailingBackend
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
    request_body,
    request_key,
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
    body = request_body(transcript, GenerationParams())
    assert list(body) == ["model", "messages", "temperature", "max_tokens"]
    messages = body["messages"]
    assert messages[0] == {"role": "system", "content": transcript.system_prompt}
    assert [m["role"] for m in messages[1:]] == ["user", "assistant", "user", "assistant", "user"]
    assert [m["content"] for m in messages[1:]] == [t.text for t in transcript.turns]
    assert all(transcript.reference_text != m["content"] for m in messages)


def test_resolve_max_tokens():
    transcript = _transcript(60, 6)  # 10-token reference
    assert request_body(transcript, GenerationParams())["max_tokens"] == 15
    assert request_body(transcript, GenerationParams(max_tokens=7))["max_tokens"] == 7


# Keys of fixed requests, one with a custom system prompt. They name the
# completions in every existing cache file, so they must not change.
GOLDEN_KEYS = {
    ("custom6", "auto", "verbatim"): "82a454fcf1e1eea28289a737c94cd6b1172af6daaf1c716c0b3ab86c80278620",
    ("custom6", "auto", "oblivious"): "378ebe83265b2afe9ad4531a31172282e53e567c02d05936813f25e8a7f32f5d",
    ("custom6", "auto", "partial:0.5"): "938945a6b06d4f94b85069cd030737ac7991a33af7c74f61a7ebe2cecc3295f9",
    ("custom6", "explicit", "verbatim"): "28e3dad2a393d8b49e7194751ae8a54e46ad1a85af3074f783d7ebcc30769729",
    ("custom6", "explicit", "oblivious"): "441b80bb038e1b4693cc7f48e91b594c6a6d2b4a8652971623b99790f460f9fc",
    ("custom6", "explicit", "partial:0.5"): "7a0ed93689328334af275873339377dfdc6f157de88b7effda33983b6d3e5f42",
    ("default2", "auto", "verbatim"): "feaca4794f2f2ed3bdc9a8af30f809834c3814044fdcb23b09ff956ade41671b",
    ("default2", "auto", "oblivious"): "e091bbc880025c99c462e1fa789e35fbe92f68584905fe7ed386a85b14456374",
    ("default2", "auto", "partial:0.5"): "91cd3d65b9627140472f476fe6f18211e6f5f1300dca02a92a041579c5aee9f1",
    ("default2", "explicit", "verbatim"): "5d7e09987a25c36ba741e9ea9d54578c3ee5b2f191933b349bfc4f427d2a9b74",
    ("default2", "explicit", "oblivious"): "eb1e82fb8e09ebe0704602c636565934b8aa1a2f299ca3b173665060fe779583",
    ("default2", "explicit", "partial:0.5"): "89c0f20596c58977bf4231e4d4db47ba834eee301e94920923312ee1b399a3e2",
}


def test_request_key_golden_digests():
    doc = tokenize_document(Document(id="golden", cohort="pre", text=UNICODE_TEXT))
    transcripts = {
        "custom6": build_transcript(doc, segment(doc, 6), system_prompt="Poursuis le texte — mot pour mot ✓"),
        "default2": build_transcript(doc, segment(doc, 2)),
    }
    params = {
        "auto": GenerationParams(model="gpt-x", temperature=0.3),
        "explicit": GenerationParams(model="gpt-x", temperature=0.3, max_tokens=64, seed=7),
    }
    keys = {
        (t, p, b): request_key(backend_from_spec(b), transcripts[t], params[p])
        for t, p, b in GOLDEN_KEYS
    }
    assert keys == GOLDEN_KEYS


def test_generation_params_validation():
    with pytest.raises(ValueError):
        GenerationParams(temperature=-0.5)
    with pytest.raises(ValueError):
        GenerationParams(max_tokens=0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="temperature must be finite"):
            GenerationParams(temperature=bad)


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


def _store(cache, key, output="gen text"):
    return cache.store(key, output, "verbatim", GenerationParams())


def test_cache_first_write_wins(tmp_path):
    cache = GenerationCache(tmp_path / "cache.jsonl")
    assert _store(cache, "k1", "first") == "first"
    assert _store(cache, "k1", "second") == "first"
    assert cache.lookup("k1") == "first"
    assert cache.lookup("missing") is None


def test_cache_persists_jsonl_round_trip(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = GenerationCache(path)
    _store(cache, "k1", "hello")
    _store(cache, "k2", "world")

    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [set(line) for line in lines] == [
        {"key", "output", "backend", "model", "temperature", "max_tokens", "seed", "created_at"}
    ] * 2

    reloaded = GenerationCache(path)
    assert reloaded.lookup("k1") == "hello"
    assert reloaded.lookup("k2") == "world"


def test_cache_round_trips_params(tmp_path):
    # The params reach the file as provenance; they are not read back.
    path = tmp_path / "cache.jsonl"
    params = GenerationParams(model="m", temperature=0.7, max_tokens=42, seed=9)
    GenerationCache(path).store("k1", "out", "partial:0.5", params)
    line = json.loads(path.read_text())
    assert line.pop("backend") == "partial:0.5"
    assert datetime.fromisoformat(line.pop("created_at")).tzinfo is not None
    assert line == {"key": "k1", "output": "out", "model": "m", "temperature": 0.7, "max_tokens": 42, "seed": 9}


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
    assert GenerationCache(path).lookup("k1") == "kept"


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
    assert cache.lookup("k1") == "kept"
    assert cache.lookup("k2") is None
    assert sum("corrupt cache line" in r.message for r in caplog.records) == 2


def test_cache_skips_line_torn_inside_a_character(tmp_path, caplog):
    # An interrupted append can stop inside a multi-byte UTF-8 character.
    path = tmp_path / "cache.jsonl"
    cache = GenerationCache(path)
    _store(cache, "k1", "café")
    _store(cache, "k2", "naïve")
    torn = json.dumps({"key": "k3", "output": "déjà"}, ensure_ascii=False).encode("utf-8")
    with path.open("ab") as handle:
        handle.write(torn[: torn.index("é".encode("utf-8")) + 1])
    with caplog.at_level(logging.WARNING):
        reloaded = GenerationCache(path)
    assert (reloaded.lookup("k1"), reloaded.lookup("k2"), reloaded.lookup("k3")) == ("café", "naïve", None)
    assert len(caplog.records) == 1 and "corrupt cache line 3:" in caplog.records[0].message


def test_cache_failed_write_leaves_no_lookup_hit(tmp_path):
    # The cache file's parent is a file, so the write fails.
    blocker = tmp_path / "blocker"
    blocker.write_text("", encoding="utf-8")
    cache = GenerationCache(blocker / "cache.jsonl")
    with pytest.raises(OSError):
        _store(cache, "k1", "lost")
    assert cache.lookup("k1") is None


def test_cache_store_after_a_torn_last_line_starts_a_new_line(tmp_path, caplog):
    # An interrupted append leaves a last line with no newline; the next
    # store must not land on it.
    path = tmp_path / "cache.jsonl"
    _store(GenerationCache(path), "k1", "kept")
    with path.open("a", encoding="utf-8") as handle:
        handle.write('{"key": "k2", "outp')
    with caplog.at_level(logging.WARNING):
        _store(GenerationCache(path), "k3", "stored")
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        reloaded = GenerationCache(path)
    assert (reloaded.lookup("k1"), reloaded.lookup("k2"), reloaded.lookup("k3")) == ("kept", None, "stored")
    assert len(caplog.records) == 1 and "corrupt cache line 2:" in caplog.records[0].message
    assert path.read_bytes().endswith(b"\n")


_PROVENANCE = {"backend": "verbatim", "model": "mock", "temperature": 0.1, "created_at": "2026-01-01T00:00:00+00:00"}


def _batch_over_cache_line(tmp_path, caplog, **fields):
    """Load a cache file of one line for a transcript, then complete that
    transcript over it; returns the record and the backend's call count."""
    transcript = _transcript()
    backend = CountingBackend(VerbatimBackend())
    params = GenerationParams()
    line = {"key": request_key(backend, transcript, params), "output": "cached", **fields}
    path = tmp_path / "cache.jsonl"
    path.write_text(json.dumps(line) + "\n", encoding="utf-8")
    with caplog.at_level(logging.WARNING):
        cache = GenerationCache(path)
    [record] = generate_batch(backend, [transcript], params, cache=cache)
    return record, backend.calls


@pytest.mark.parametrize("field", ["key", "output"])
def test_cache_skips_line_with_non_string_field(tmp_path, caplog, field):
    record, calls = _batch_over_cache_line(tmp_path, caplog, **_PROVENANCE, **{field: 5})
    assert any("corrupt cache line" in r.message for r in caplog.records)
    assert calls == 1
    assert record.output_text == _transcript().reference_text


# The key already names the request, so the provenance fields are never read
# back: a line is served whatever they hold, or without them.
@pytest.mark.parametrize(
    "field, value",
    [
        ("backend", 5),
        ("model", 5),
        ("created_at", 5),
        ("temperature", True),
        ("temperature", "0.1"),
        ("max_tokens", 2.5),
        ("max_tokens", False),
        ("seed", "x"),
        ("seed", True),
    ],
)
def test_cache_serves_line_with_mistyped_provenance(tmp_path, caplog, field, value):
    record, calls = _batch_over_cache_line(tmp_path, caplog, **{**_PROVENANCE, field: value})
    assert not caplog.records
    assert calls == 0
    assert record.output_text == "cached"


def test_cache_serves_line_with_only_key_and_output(tmp_path, caplog):
    record, calls = _batch_over_cache_line(tmp_path, caplog)
    assert not caplog.records
    assert calls == 0
    assert record.output_text == "cached"


def test_cache_duplicate_key_in_file_keeps_first(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = GenerationCache(path)
    _store(cache, "k1", "first")
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
    assert GenerationCache(path).lookup("k1") == "first"


# --------------------------------------------------------------- generate APIs


def test_generate_returns_tokenized_completion():
    transcript = _transcript()
    [record] = generate_batch(VerbatimBackend(), [transcript], GenerationParams())
    completion = GeneratedCompletion.from_text(record.output_text)
    assert completion.text == transcript.reference_text
    assert completion.tokens == transcript.reference_tokens


def test_generate_uses_cache(tmp_path):
    transcript = _transcript()
    backend = CountingBackend(VerbatimBackend())
    cache = GenerationCache(tmp_path / "cache.jsonl")
    params = GenerationParams()
    generate_batch(backend, [transcript], params, cache=cache)
    generate_batch(backend, [transcript], params, cache=cache)
    assert backend.calls == 1
    generate_batch(backend, [transcript], params)  # no cache: hits the backend again
    assert backend.calls == 2


def test_generate_batch_returns_stored_output_on_cache_hit(tmp_path):
    transcript = _transcript()
    cache = GenerationCache(tmp_path / "cache.jsonl")
    params = GenerationParams()
    backend = CountingBackend(VerbatimBackend())
    [stored] = generate_batch(backend, [transcript], params, cache=cache)
    [hit] = generate_batch(backend, [transcript], params, cache=cache)
    assert backend.calls == 1
    assert hit == stored == GenerationRecord(transcript.reference_text)


class _EmptyBackend(Backend):
    name = "empty"

    def complete(self, transcript, params):
        return ""


def test_generate_batch_serves_empty_completion_from_cache_file(tmp_path):
    path = tmp_path / "cache.jsonl"
    transcript = _transcript()
    params = GenerationParams()
    [stored] = generate_batch(_EmptyBackend(), [transcript], params, cache=GenerationCache(path))
    assert stored.error is None and stored.output_text == ""
    assert json.loads(path.read_text())["output"] == ""

    backend = CountingBackend(_EmptyBackend())
    [hit] = generate_batch(backend, [transcript], params, cache=GenerationCache(path))
    assert backend.calls == 0
    assert hit == stored


def test_generate_batch_never_caches_failures(tmp_path):
    transcript = _transcript(tag="bad")
    cache = GenerationCache(tmp_path / "cache.jsonl")
    params = GenerationParams()
    [failed] = generate_batch(FailingBackend(VerbatimBackend(), marker="bad"), [transcript], params, cache=cache)
    assert failed.error is not None
    assert cache.lookup(request_key(VerbatimBackend(), transcript, params)) is None
    backend = CountingBackend(VerbatimBackend())
    [retried] = generate_batch(backend, [transcript], params, cache=cache)
    assert retried.error is None and backend.calls == 1


def test_generate_batch_computes_request_key_once_per_item(monkeypatch, tmp_path):
    import msr_audit.gateway as gateway

    calls = []
    original = gateway.request_key
    monkeypatch.setattr(gateway, "request_key", lambda *args: calls.append(1) or original(*args))
    transcripts = [_transcript(tag="ok"), _transcript(tag="bad")]
    backend = FailingBackend(VerbatimBackend(), marker="bad")
    records = generate_batch(backend, transcripts, GenerationParams(), cache=GenerationCache(tmp_path / "cache.jsonl"))
    assert [r.error is None for r in records] == [True, False]
    assert len(calls) == 2


def test_generate_batch_alignment():
    transcripts = [_transcript(tag=f"t{i}") for i in range(5)]
    params = GenerationParams(seed=1)
    records = generate_batch(ObliviousBackend(), transcripts, params, max_in_flight=3)
    assert len(records) == 5
    for transcript, record in zip(transcripts, records):
        assert record.error is None
        assert record.output_text == ObliviousBackend().complete(transcript, params)


def test_generate_batch_captures_per_item_failures():
    transcripts = [_transcript(tag="ok1"), _transcript(tag="bad"), _transcript(tag="ok2")]
    backend = FailingBackend(VerbatimBackend(), marker="bad")
    records = generate_batch(backend, transcripts, GenerationParams())
    assert [r.error is None for r in records] == [True, False, True]
    assert "synthetic failure" in records[1].error
    assert records[0].output_text == transcripts[0].reference_text


def test_generate_batch_validation_and_empty():
    with pytest.raises(ValueError):
        generate_batch(VerbatimBackend(), [_transcript()], GenerationParams(), max_in_flight=0)
    assert generate_batch(VerbatimBackend(), [], GenerationParams()) == []


def test_generate_batch_skips_cached_entries(tmp_path):
    transcripts = [_transcript(tag=f"t{i}") for i in range(10)]
    params = GenerationParams()
    cache = GenerationCache(tmp_path / "cache.jsonl")
    generate_batch(VerbatimBackend(), transcripts[:4], params, cache=cache)

    backend = CountingBackend(VerbatimBackend())
    records = generate_batch(backend, transcripts, params, cache=cache)
    assert backend.calls == 6
    assert all(r.error is None for r in records)
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
    assert body == request_body(transcript, GenerationParams(model="gpt-x", temperature=0.3))


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
    assert [r.error is None for r in records] == [True, False, True]
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
            assert all(r.error is None for r in records)
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


def test_live_backend_fails_a_certificate_error_without_retrying():
    class UntrustedConnection:
        def request(self, *args):
            raise ssl.SSLCertVerificationError(
                1, "[SSL: CERTIFICATE_VERIFY_FAILED] certificate verify failed: self-signed certificate"
            )

        def close(self):
            pass

    dials, sleeps = [], []
    backend = LiveBackend("https://self-signed.test/v1", sleep=sleeps.append)
    backend._dial = lambda: dials.append(1) or UntrustedConnection()
    with pytest.raises(BackendError, match="certificate verif"):
        backend.complete(_transcript(), GenerationParams())
    assert dials == [1]
    assert sleeps == []


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
    assert backend._headers["Authorization"] == "Bearer sk-env"

    explicit = backend_from_spec("live", base_url="http://other.test", api_key="sk-flag")
    assert explicit.url == "http://other.test/chat/completions"
    assert explicit._headers["Authorization"] == "Bearer sk-flag"
