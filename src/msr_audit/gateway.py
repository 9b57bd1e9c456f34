"""Completion backends: a live chat-completions HTTP client with retries and
bounded concurrency, deterministic mock backends for offline runs, and an
append-only JSONL response cache keyed by canonical request digest.
"""

from __future__ import annotations

import functools
import hashlib
import http.client
import json
import logging
import math
import os
import random
import ssl
import threading
import time
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Sequence

from msr_audit.prompting import Transcript

logger = logging.getLogger(__name__)

RETRY_STATUS = frozenset({429}) | frozenset(range(500, 600))


class BackendError(Exception):
    """Raised when a backend cannot produce a completion."""


@dataclass(frozen=True)
class GenerationParams:
    """Request parameters shared by all backends.

    ``max_tokens=None`` means auto: ceil(1.5 x reference token count), long
    enough to contain a fully regurgitated reference while bounding cost.
    ``seed`` only affects the mock backends.
    """

    model: str = "mock"
    temperature: float = 0.1
    max_tokens: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.temperature):
            raise ValueError(f"temperature must be finite, got {self.temperature}")
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if self.max_tokens is not None and self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")


@dataclass(frozen=True)
class GenerationRecord:
    """One completion, or the error that took its place."""

    output_text: str
    error: str | None = None


def request_body(transcript: Transcript, params: GenerationParams) -> dict:
    """The chat-completions request: the system prompt, then the faux turns.
    ``max_tokens=None`` (auto) resolves to ceil(1.5 x reference token count).
    """
    messages = [{"role": "system", "content": transcript.system_prompt}]
    messages.extend({"role": t.role, "content": t.text} for t in transcript.turns)
    if params.max_tokens is not None:
        max_tokens = params.max_tokens
    else:
        max_tokens = math.ceil(1.5 * len(transcript.reference_tokens))
    return {
        "model": params.model,
        "messages": messages,
        "temperature": params.temperature,
        "max_tokens": max_tokens,
    }


def request_key(backend: Backend, transcript: Transcript, params: GenerationParams) -> str:
    """Hex digest of the canonical request: ``request_body`` plus the backend
    name, and the seed for backends that use it.
    """
    payload = {**request_body(transcript, params), "backend": backend.name}
    if backend.uses_seed:
        payload["seed"] = params.seed if params.seed is not None else 0
    canonical = json.dumps(payload, sort_keys=True, ensure_ascii=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Backend:
    """Produces completion text for a transcript.

    ``waits_on_io`` marks a backend whose ``complete`` spends its time
    waiting on the network; only such a backend gets a thread pool in
    ``generate_batch``.
    """

    name = "backend"
    uses_seed = False
    waits_on_io = False

    def complete(self, transcript: Transcript, params: GenerationParams) -> str:
        raise NotImplementedError

    def close(self) -> None:
        """Release what the backend holds open; the mock backends hold nothing."""


class VerbatimBackend(Backend):
    """Returns the held-out reference exactly; models a fully memorized source."""

    name = "verbatim"

    def complete(self, transcript: Transcript, params: GenerationParams) -> str:
        return transcript.reference_text


_SYLLABLES = (
    "ba", "ce", "di", "fo", "gu", "hy", "ja", "ko", "lu", "me",
    "ni", "po", "qua", "re", "si", "tu", "ve", "wo", "xa", "zy",
)


def _call_rng(seed: int | None, reference_text: str) -> random.Random:
    """RNG derived from (seed, reference) so output is independent of call order."""
    digest = hashlib.sha256(f"{seed or 0}|{reference_text}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _fresh_tokens(count: int, forbidden: frozenset[str], rng: random.Random) -> list[str]:
    """Synthetic nonsense words guaranteed absent from ``forbidden``."""
    out = []
    for _ in range(count):
        word = "".join(rng.choice(_SYLLABLES) for _ in range(3))
        while word in forbidden:
            word += rng.choice(_SYLLABLES)
        out.append(word)
    return out


def _folded(reference_tokens: Sequence[str]) -> frozenset[str]:
    """The reference words a fresh word must avoid. Fresh words are lowercase,
    so forbidding the folded forms keeps them unmatched under case folding too."""
    return frozenset(token.lower() for token in reference_tokens)


class ObliviousBackend(Backend):
    """Emits a seeded synthetic word sequence sharing no token with the
    reference; models a source the backend never saw."""

    name = "oblivious"
    uses_seed = True

    def complete(self, transcript: Transcript, params: GenerationParams) -> str:
        rng = _call_rng(params.seed, transcript.reference_text)
        forbidden = _folded(transcript.reference_tokens)
        return " ".join(_fresh_tokens(len(transcript.reference_tokens), forbidden, rng))


class PartialCopyBackend(Backend):
    """Copies each reference chunk with probability ``p``, otherwise
    substitutes synthetic words of the same length.

    A synthetic separator word follows every chunk, so each copied chunk
    surfaces as one isolated maximal match of the chunk's length rather than
    merging with a copied neighbor.
    """

    uses_seed = True

    def __init__(self, p: float, chunk_words: int = 8) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"copy probability must be in [0, 1], got {p}")
        if chunk_words < 1:
            raise ValueError(f"chunk_words must be >= 1, got {chunk_words}")
        self.p = p
        self.chunk_words = chunk_words
        self.name = f"partial:{p:g}"

    def complete(self, transcript: Transcript, params: GenerationParams) -> str:
        rng = _call_rng(params.seed, transcript.reference_text)
        ref = transcript.reference_tokens
        forbidden = _folded(ref)
        out: list[str] = []
        for start in range(0, len(ref), self.chunk_words):
            chunk = ref[start : start + self.chunk_words]
            if rng.random() < self.p:
                out.extend(chunk)
            else:
                out.extend(_fresh_tokens(len(chunk), forbidden, rng))
            out.extend(_fresh_tokens(1, forbidden, rng))
        return " ".join(out)


class LiveBackend(Backend):
    """Chat-completions HTTP client with exponential backoff and jitter.

    Retries transient failures (timeouts, connection errors, 429, 5xx) up to
    ``max_attempts`` times; other client errors surface immediately.

    Keep-alive connections are pooled on the backend: a request takes an idle
    connection or dials a new one, and returns it only after reading the whole
    response, so no two threads share a connection and at most one is open
    per thread in flight. HTTPS verifies against the system trust store.
    """

    name = "live"
    waits_on_io = True

    def __init__(
        self,
        base_url: str,
        api_key: str | None = None,
        timeout: float = 60.0,
        max_attempts: int = 5,
        backoff_base: float = 1.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if not base_url:
            raise ValueError("live backend requires a base URL")
        self.url = base_url.rstrip("/") + "/chat/completions"
        parts = urllib.parse.urlsplit(self.url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"live backend URL must be http(s)://host[:port][/path], got {base_url!r}")
        self._path = parts.path + (f"?{parts.query}" if parts.query else "")
        if parts.scheme == "https":
            self._dial = functools.partial(
                http.client.HTTPSConnection,
                parts.hostname,
                parts.port or 443,
                timeout=timeout,
                context=ssl.create_default_context(),
            )
        else:
            self._dial = functools.partial(http.client.HTTPConnection, parts.hostname, parts.port or 80, timeout=timeout)
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self._sleep = sleep
        self._idle: list[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()

    def close(self) -> None:
        """Close the idle keep-alive connections; a later request dials anew."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def complete(self, transcript: Transcript, params: GenerationParams) -> str:
        body = json.dumps(request_body(transcript, params)).encode("utf-8")

        last_error = "no attempts made"
        for attempt in range(self.max_attempts):
            if attempt:
                delay = self.backoff_base * 2 ** (attempt - 1) * (0.5 + random.random())
                logger.warning("retrying after %s (attempt %d): %s", last_error, attempt + 1, self.url)
                self._sleep(delay)
            try:
                status, data = self._post(body)
            except ssl.SSLCertVerificationError as exc:
                # An untrusted certificate stays untrusted; retrying only waits.
                raise BackendError(f"certificate verification failed for {self.url}: {exc}") from exc
            except (OSError, http.client.HTTPException) as exc:
                last_error = f"network error: {exc}"
                continue
            if status in RETRY_STATUS:
                last_error = f"HTTP {status}"
                continue
            if status != 200:
                text = data[:200].decode("utf-8", errors="replace")
                raise BackendError(f"HTTP {status} from {self.url}: {text}")
            return self._extract_content(data)
        raise BackendError(f"request to {self.url} failed after {self.max_attempts} attempts: {last_error}")

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """One POST on an idle connection, or on a new one if none is idle.

        A reused connection that fails before a status line arrives was most
        likely closed by the server while idle, so the request goes out once
        more on a new connection; only that second failure reaches the caller.
        """
        with self._idle_lock:
            conn = self._idle.pop() if self._idle else None
        if conn is not None:
            result = self._exchange(conn, body, reused=True)
            if result is not None:
                return result
        return self._exchange(self._dial(), body, reused=False)

    def _exchange(self, conn: http.client.HTTPConnection, body: bytes, reused: bool) -> tuple[int, bytes] | None:
        """Send ``body`` on ``conn`` and read the whole response; None when a
        reused connection turns out to be closed."""
        try:
            try:
                conn.request("POST", self._path, body, self._headers)
                resp = conn.getresponse()
            except ConnectionError:
                if not reused:
                    raise
                conn.close()
                return None
            data = resp.read()
        except BaseException:
            conn.close()
            raise
        if resp.will_close:
            conn.close()
        else:
            with self._idle_lock:
                self._idle.append(conn)
        return resp.status, data

    @staticmethod
    def _extract_content(data: bytes) -> str:
        try:
            parsed = json.loads(data)
        except ValueError as exc:
            raise BackendError(f"malformed response body: {exc}") from exc
        try:
            content = parsed["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            raise BackendError(f"malformed response body: {str(parsed)[:200]}") from None
        if not isinstance(content, str):
            raise BackendError(f"completion content is not a string: {content!r}")
        return content


def backend_from_spec(spec: str, base_url: str | None = None, api_key: str | None = None) -> Backend:
    """Build a backend from its CLI spec: live | verbatim | oblivious | partial:P.

    For the live backend the base URL falls back to the MSR_BASE_URL
    environment variable and the bearer token to MSR_API_KEY.
    """
    if spec == "verbatim":
        return VerbatimBackend()
    if spec == "oblivious":
        return ObliviousBackend()
    if spec.startswith("partial:"):
        try:
            p = float(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad partial backend spec {spec!r}; expected partial:P") from None
        return PartialCopyBackend(p)
    if spec == "live":
        url = base_url or os.environ.get("MSR_BASE_URL")
        if not url:
            raise ValueError("live backend requires --base-url or MSR_BASE_URL")
        return LiveBackend(url, api_key=api_key or os.environ.get("MSR_API_KEY"))
    raise ValueError(f"unknown backend {spec!r}; expected live, verbatim, oblivious, or partial:P")


class GenerationCache:
    """First-write-wins map from request key to completion text, persisted
    as JSON lines.

    Each line holds {"key", "output", "backend", "model", "temperature",
    "max_tokens", "seed", "created_at"}. Only "key" and "output" are read
    back: the key is the digest of the whole request, so it already names
    the backend and parameters; the other fields record provenance for
    people reading the file. A line without a string "key" and "output" is
    skipped with a warning. One lock serializes lookups and writes.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._outputs: dict[str, str] = {}
        self._lock = threading.Lock()
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        # Binary lines: json.loads decodes each one, so a line torn inside a
        # multi-byte character is skipped like any other corrupt line.
        with self.path.open("rb") as handle:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    raw = json.loads(line)
                    key, output = raw["key"], raw["output"]
                    if not isinstance(key, str) or not isinstance(output, str):
                        raise TypeError("'key' and 'output' must be strings")
                except (ValueError, KeyError, TypeError) as exc:
                    logger.warning("%s: skipping corrupt cache line %d: %s", self.path, lineno, exc)
                    continue
                self._outputs.setdefault(key, output)

    def lookup(self, key: str) -> str | None:
        with self._lock:
            return self._outputs.get(key)

    def store(self, key: str, output: str, backend_name: str, params: GenerationParams) -> str:
        """Store ``output`` under ``key`` and return the stored output: if the
        key already exists the first output wins.

        ``backend_name`` and ``params`` are written to the file as provenance.
        """
        with self._lock:
            existing = self._outputs.get(key)
            if existing is not None:
                return existing
            record = {
                "key": key,
                "output": output,
                "backend": backend_name,
                "model": params.model,
                "temperature": params.temperature,
                "max_tokens": params.max_tokens,
                "seed": params.seed,
                "created_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            }
            try:
                line = json.dumps(record, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError:
                # A lone surrogate has no UTF-8 form; \u escapes round-trip any str.
                line = json.dumps(record).encode("ascii")
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a+b") as handle:
                # After an interrupted write the file ends mid-line; start a
                # new line, or this record would join the torn one.
                if handle.tell():
                    handle.seek(-1, os.SEEK_END)
                    if handle.read(1) != b"\n":
                        line = b"\n" + line
                handle.write(line + b"\n")
            # Only a written record is served, so a lookup hit is always on file.
            self._outputs[key] = output
            return output


def generate_batch(
    backend: Backend,
    transcripts: Sequence[Transcript],
    params: GenerationParams,
    max_in_flight: int = 4,
    cache: GenerationCache | None = None,
) -> list[GenerationRecord]:
    """Complete many transcripts, in order, one record per transcript.

    A backend that waits on I/O (``waits_on_io``, the live backend) gets a
    thread pool with at most ``max_in_flight`` requests outstanding. Any
    other backend, such as the mocks, is CPU-bound and runs inline on the
    caller's thread, since threads would only pass the GIL back and forth.
    Outputs align index-wise with the inputs regardless of completion order.
    With a ``cache``, each transcript's ``request_key`` is computed once and
    cached entries are not re-requested; without one no key is computed.
    Per-item failures are captured on the record (``error`` set), never
    cached, and never abort the batch. Empty completions are kept as they
    are.
    """
    if max_in_flight < 1:
        raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")

    def one(transcript: Transcript) -> GenerationRecord:
        if cache is not None:
            key = request_key(backend, transcript, params)
            hit = cache.lookup(key)
            if hit is not None:
                return GenerationRecord(hit)
        try:
            output = backend.complete(transcript, params)
        except BackendError as exc:
            return GenerationRecord("", error=str(exc))
        if cache is not None:
            output = cache.store(key, output, backend.name, params)
        return GenerationRecord(output)

    if not backend.waits_on_io:
        return list(map(one, transcripts))
    with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
        return list(pool.map(one, transcripts))
