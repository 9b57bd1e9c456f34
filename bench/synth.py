"""Seeded synthetic inputs: a Zipf vocabulary, two-cohort corpora written as
JSON lines, and the chunk-copying completion model shared by the offline mock
backend and the live stub.

Standard library only, so that the stub and the output check never import
``msr_audit`` and the timed set-up of a fresh process imports nothing else
heavy.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
import string
from pathlib import Path
from typing import Sequence

from workloads import CHUNK_WORDS, VOCABULARY, ZIPF_EXPONENT


class Vocabulary:
    """``VOCABULARY`` distinct lowercase words; the word of rank r has
    probability proportional to r ** -ZIPF_EXPONENT."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"vocabulary|{seed}")
        words: dict[str, None] = {}
        while len(words) < VOCABULARY:
            length = rng.randint(2, 9)
            words.setdefault("".join(rng.choices(string.ascii_lowercase, k=length)))
        self.words = list(words)
        self.cum_weights = list(itertools.accumulate(r**-ZIPF_EXPONENT for r in range(1, VOCABULARY + 1)))

    def sample(self, rng: random.Random, count: int) -> list[str]:
        return rng.choices(self.words, cum_weights=self.cum_weights, k=count)


def document_lengths(rng: random.Random, count: int, spec: tuple[str, int, int]) -> list[int]:
    """The midpoints of ``count`` equal-probability strata of the distribution,
    shuffled. Every seed gets the same lengths, so the work per audit does not
    vary with the seed; the seed varies the words and their order."""
    kind, low, high = spec
    quantiles = [(i + 0.5) / count for i in range(count)]
    if kind == "loguniform":
        lengths = [round(math.exp(math.log(low) + q * math.log(high / low))) for q in quantiles]
    elif kind == "uniform":
        lengths = [round(low + q * (high - low)) for q in quantiles]
    else:
        raise ValueError(f"unknown length distribution {kind!r}")
    rng.shuffle(lengths)
    return lengths


def document_text(rng: random.Random, vocab: Vocabulary, n_words: int) -> str:
    """Zipf words separated by single spaces, with a paragraph break after
    every 40 to 120 words."""
    words = vocab.sample(rng, n_words)
    paragraphs = []
    start = 0
    while start < n_words:
        end = min(n_words, start + rng.randint(40, 120))
        paragraphs.append(" ".join(words[start:end]))
        start = end
    return "\n\n".join(paragraphs)


def write_corpus(out_dir: Path, seed: int, params: dict, vocab: Vocabulary) -> dict[str, Path]:
    """Write ``pre.jsonl`` and ``post.jsonl`` for one workload and seed."""
    paths = {}
    for cohort in ("pre", "post"):
        rng = random.Random(f"corpus|{seed}|{cohort}")
        lengths = document_lengths(rng, params["docs_per_cohort"], params["lengths"])
        path = out_dir / f"{cohort}.jsonl"
        with path.open("w", encoding="utf-8") as handle:
            for i, n_words in enumerate(lengths):
                record = {"id": f"{cohort}-{i:04d}", "cohort": cohort, "text": document_text(rng, vocab, n_words)}
                handle.write(json.dumps(record) + "\n")
        paths[cohort] = path
    return paths


def copy_rng(seed: int, key: str) -> random.Random:
    """RNG derived from (seed, key), so output is independent of call order."""
    digest = hashlib.sha256(f"{seed}|{key}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def chunk_copy(reference: Sequence[str], p: float, rng: random.Random, vocab: Vocabulary) -> str:
    """A completion as long as ``reference`` that cuts it into chunks of
    ``CHUNK_WORDS`` lengths and copies each chunk with probability ``p``,
    otherwise emitting Zipf words.

    Chunk lengths span the counted match lengths, so every threshold count
    is exercised. Unlike the package's ``PartialCopyBackend``, filler words
    come from the corpus vocabulary, so they coincide with reference words as
    often as real text does and adjacent copied chunks may merge into longer
    matches.
    """
    out: list[str] = []
    start = 0
    while start < len(reference):
        chunk = reference[start : start + rng.randint(*CHUNK_WORDS)]
        start += len(chunk)
        if rng.random() < p:
            out.extend(chunk)
        else:
            out.extend(vocab.sample(rng, len(chunk)))
    return " ".join(out)
