"""Shared fixtures and mock helpers."""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path

import pytest

from msr_audit import Backend, BackendError, Document, ExperimentConfig


def pytest_collection_modifyitems(items):
    """Turn every warning into a test failure. The marks go first, so a
    test's own filterwarnings marks still take precedence over them. The
    ignore outranks the error: Hypothesis raises that warning while it
    reports a failing example, and as an error it would abort the session."""
    for item in items:
        item.add_marker(
            pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"),
            append=False,
        )
        item.add_marker(pytest.mark.filterwarnings("error"), append=False)


def synthetic_text(tag: str, n_words: int) -> str:
    """Deterministic text whose tokens are unique within the document."""
    return " ".join(f"{tag}w{i}" for i in range(n_words))


# Non-ASCII text with tab, newline and CRLF whitespace, 21 words; golden
# request keys and transcript renderings are pinned on it.
UNICODE_TEXT = (
    "Ça démarre\tici : naïve café, «guillemets» et 東京\n\ncontinue  sans fin — "
    "über straße ØRE 𝔘nicode\tligne\r\nfinale ĳ ok"
)


def make_corpus(n_pre: int = 3, n_post: int = 3, words: int = 120) -> list[Document]:
    docs = [
        Document(id=f"pre-{i}", cohort="pre", text=synthetic_text(f"p{i}", words))
        for i in range(n_pre)
    ]
    docs += [
        Document(id=f"post-{i}", cohort="post", text=synthetic_text(f"q{i}", words))
        for i in range(n_post)
    ]
    return docs


def write_corpus_jsonl(path: Path, docs: list[Document]) -> Path:
    lines = [json.dumps({"id": d.id, "cohort": d.cohort, "text": d.text}) for d in docs]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def assert_calibrated(pvalues: list[float], alpha: float, tail: float = 1e-3) -> None:
    """Fail when more p-values fall below ``alpha`` than a calibrated test
    plausibly gives: at most the least k with P(Bin(n, alpha) > k) <= ``tail``."""
    n = len(pvalues)

    def above(k: int) -> float:
        return sum(math.comb(n, i) * alpha**i * (1 - alpha) ** (n - i) for i in range(k + 1, n + 1))

    bound = next(k for k in range(n + 1) if above(k) <= tail)
    rejections = sum(p < alpha for p in pvalues)
    assert rejections <= bound, f"{rejections} of {n} p-values below {alpha}; a calibrated test gives at most {bound}"


class CountingBackend(Backend):
    """Wraps another backend and counts completion calls (thread-safe)."""

    def __init__(self, inner: Backend) -> None:
        self.inner = inner
        self.name = inner.name
        self.uses_seed = inner.uses_seed
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, transcript, params) -> str:
        with self._lock:
            self.calls += 1
        return self.inner.complete(transcript, params)


class FailingBackend(Backend):
    """Fails whenever the reference contains ``marker``; otherwise delegates."""

    def __init__(self, inner: Backend, marker: str) -> None:
        self.inner = inner
        self.name = inner.name
        self.uses_seed = inner.uses_seed
        self.marker = marker

    def complete(self, transcript, params) -> str:
        if self.marker in transcript.reference_text:
            raise BackendError(f"synthetic failure on {self.marker!r}")
        return self.inner.complete(transcript, params)


@pytest.fixture
def small_corpus() -> list[Document]:
    return make_corpus()


@pytest.fixture
def small_config() -> ExperimentConfig:
    return ExperimentConfig(min_words=50, l_min=2, l_max=8, shots=6)
