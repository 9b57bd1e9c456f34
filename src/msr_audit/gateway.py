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

from msr_audit.corpus import words
from msr_audit.prompting import Transcript

logger = logging.getLogger(__name__)

RETRY_STATUS = frozenset({429}) | frozenset(range(500, 600))
# Tries per live request, the first included.
_MAX_ATTEMPTS = 5
# Reference words per chunk the partial-copy mock copies or replaces.
_CHUNK_WORDS = 8


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
    seed: int = 0

    def __post_init__(self) -> None:
        if not math.isfinite(self.temperature):
            raise ValueError(f"temperature must be finite, got {self.temperature}")
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")
        if self.max_tokens is not None and self.max_tokens < 1:
            raise ValueError(f"max_tokens must be >= 1, got {self.max_tokens}")


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


def _request(backend: Backend, transcript: Transcript, params: GenerationParams) -> dict:
    """``request_body`` plus the backend name, its URL for a backend that
    has one, and the seed for backends that use it: what ``request_key``
    digests and a cache line records."""
    request = {**request_body(transcript, params), "backend": backend.name}
    if backend.url is not None:
        request["url"] = backend.url
    if backend.uses_seed:
        request["seed"] = params.seed
    return request


def request_key(backend: Backend, transcript: Transcript, params: GenerationParams) -> str:
    """Hex SHA-256 of ``_request`` as canonical JSON: sorted keys, ASCII
    escapes, no spaces."""
    request = _request(backend, transcript, params)
    canonical = json.dumps(request, sort_keys=True, ensure_ascii=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class Backend:
    """Produces completion text for a transcript.

    ``waits_on_io`` marks a backend whose ``complete`` spends its time
    waiting on the network; only such a backend gets a thread pool in
    ``generate_batch``. ``url`` is where a live backend sends its requests
    (scheme, host, port and path, never the query), and None for a backend
    that sends none.
    """

    name = "backend"
    url: str | None = None
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


def _call_rng(seed: int, reference_text: str) -> random.Random:
    """RNG derived from (seed, reference) so output is independent of call order."""
    digest = hashlib.sha256(f"{seed}|{reference_text}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _fresh_tokens(count: int, forbidden: frozenset[str], rng: random.Random) -> list[str]:
    """Synthetic nonsense words guaranteed absent from ``forbidden``. They are
    lowercase, so forbidding the folded reference words keeps them unmatched
    under case folding too."""
    out = []
    for _ in range(count):
        word = "".join(rng.choice(_SYLLABLES) for _ in range(3))
        while word in forbidden:
            word += rng.choice(_SYLLABLES)
        out.append(word)
    return out


class ObliviousBackend(Backend):
    """Emits a seeded synthetic word sequence sharing no token with the
    reference; models a source the backend never saw."""

    name = "oblivious"
    uses_seed = True

    def complete(self, transcript: Transcript, params: GenerationParams) -> str:
        rng = _call_rng(params.seed, transcript.reference_text)
        forbidden = frozenset(words(transcript.reference_text, lowercase=True))
        return " ".join(_fresh_tokens(len(transcript.reference_tokens), forbidden, rng))


class PartialCopyBackend(Backend):
    """Copies each ``_CHUNK_WORDS``-word reference chunk with probability
    ``p``, otherwise substitutes synthetic words of the same length.

    A synthetic separator word follows every chunk, so each copied chunk
    surfaces as one isolated maximal match of the chunk's length rather than
    merging with a copied neighbor.
    """

    uses_seed = True

    def __init__(self, p: float) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"copy probability must be in [0, 1], got {p}")
        self.p = p
        self.name = f"partial:{p:g}"

    def complete(self, transcript: Transcript, params: GenerationParams) -> str:
        rng = _call_rng(params.seed, transcript.reference_text)
        ref = transcript.reference_tokens
        forbidden = frozenset(words(transcript.reference_text, lowercase=True))
        out: list[str] = []
        for start in range(0, len(ref), _CHUNK_WORDS):
            chunk = ref[start : start + _CHUNK_WORDS]
            if rng.random() < self.p:
                out.extend(chunk)
            else:
                out.extend(_fresh_tokens(len(chunk), forbidden, rng))
            out.extend(_fresh_tokens(1, forbidden, rng))
        return " ".join(out)


class LiveBackend(Backend):
    """Chat-completions HTTP client with exponential backoff and jitter.

    Retries transient failures (timeouts, connection errors, 429, 5xx) up to
    ``_MAX_ATTEMPTS`` tries in all; other client errors surface immediately.
    A query on ``base_url`` stays the query of the request, whose path is the
    base URL's path plus ``/chat/completions``. The query may hold a secret,
    so ``url``, which request keys, cache lines, errors and retry warnings
    name, leaves it out.

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
        backoff_base: float = 1.0,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        parts = urllib.parse.urlsplit(base_url or "")
        if "@" in parts.netloc:
            # Never echo the URL: its userinfo may hold a secret.
            raise ValueError("live backend URL must not carry user:password; give the key in MSR_API_KEY")
        try:
            port = parts.port  # raises unless a number in 0-65535 or absent
            if parts.scheme not in ("http", "https") or not parts.hostname:
                raise ValueError
        except ValueError:
            # Userinfo without //host lands in the path, a secret may fill the port: echo neither.
            raise ValueError("live backend URL must be http(s)://host[:port][/path]") from None
        parts = parts._replace(path=parts.path.rstrip("/") + "/chat/completions")
        self.url = urllib.parse.urlunsplit(parts._replace(query="", fragment=""))
        self._path = parts.path + (f"?{parts.query}" if parts.query else "")
        if parts.scheme == "https":
            self._dial = functools.partial(
                http.client.HTTPSConnection,
                parts.hostname,
                port or 443,
                timeout=timeout,
                context=ssl.create_default_context(),
            )
        else:
            self._dial = functools.partial(http.client.HTTPConnection, parts.hostname, port or 80, timeout=timeout)
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"
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
        for attempt in range(_MAX_ATTEMPTS):
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
        raise BackendError(f"request to {self.url} failed after {_MAX_ATTEMPTS} attempts: {last_error}")

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


def backend_from_spec(spec: str, base_url: str | None = None) -> Backend:
    """Build a backend from its CLI spec: live | verbatim | oblivious | partial:P.

    The live backend needs ``base_url`` (the CLI's --base-url, which
    defaults to MSR_BASE_URL), and its bearer token is MSR_API_KEY's value.
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
        if not base_url:
            raise ValueError("live backend requires --base-url or MSR_BASE_URL")
        return LiveBackend(base_url, api_key=os.environ.get("MSR_API_KEY"))
    raise ValueError(f"unknown backend {spec!r}; expected live, verbatim, oblivious, or partial:P")


def utc_timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


class GenerationCache:
    """First-write-wins map from request key to completion text, persisted
    as JSON lines.

    Each line holds "key", "output", the fields of the request the key
    digests less its "messages" (model, temperature, the max_tokens sent,
    backend, the live backend's url, and seed where the backend uses one),
    and "created_at". Only "key" and "output" are read back; the other
    fields record provenance for people reading the file. A line without a
    string "key" and "output" is skipped with a warning. One lock
    serializes lookups and writes. The file and its directory are created,
    and the file opened for appending, when the cache is built, so a path
    that cannot be written fails before the first request rather than after
    it.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._outputs: dict[str, str] = {}
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.open("ab").close()
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

    def store(self, key: str, output: str, request: dict) -> str:
        """Store ``output`` under ``key`` and return the stored output: if the
        key already exists the first output wins.

        ``request`` is what ``key`` digests; its fields but "messages" are
        written to the file as provenance.
        """
        with self._lock:
            existing = self._outputs.get(key)
            if existing is not None:
                return existing
            provenance = {field: value for field, value in request.items() if field != "messages"}
            record = {"key": key, "output": output, **provenance, "created_at": utc_timestamp()}
            # A lone surrogate has no UTF-8 form: write it as the JSON escape \udXXX.
            line = json.dumps(record, ensure_ascii=False).encode("utf-8", "backslashreplace")
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
) -> list[str | BackendError]:
    """Complete many transcripts: per transcript, in input order, the
    completion text or the ``BackendError`` that took its place.

    A backend that waits on I/O (``waits_on_io``, the live backend) gets a
    thread pool with at most ``max_in_flight`` requests outstanding. Any
    other backend, such as the mocks, is CPU-bound and runs inline on the
    caller's thread, since threads would only pass the GIL back and forth.
    With a ``cache``, each transcript's ``request_key`` is computed once and
    cached entries are not re-requested; without one no key is computed.
    A ``BackendError`` is never cached and never aborts the batch; it comes
    back without its traceback or chained errors, whose frames hold the
    transcript. Any other exception propagates, and requests not yet sent
    are dropped. Empty completions are kept as they are.
    """
    if max_in_flight < 1:
        raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")

    def one(transcript: Transcript) -> str | BackendError:
        if cache is not None:
            key = request_key(backend, transcript, params)
            hit = cache.lookup(key)
            if hit is not None:
                return hit
        try:
            output = backend.complete(transcript, params)
        except BackendError as exc:
            exc.__cause__ = exc.__context__ = None
            return exc.with_traceback(None)
        if cache is not None:
            output = cache.store(key, output, _request(backend, transcript, params))
        return output

    if not backend.waits_on_io:
        return list(map(one, transcripts))
    with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
        return list(pool.map(one, transcripts))
