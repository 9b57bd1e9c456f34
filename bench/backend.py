"""The offline mock model of the benchmark."""

from __future__ import annotations

import threading

from msr_audit.gateway import Backend

from synth import Vocabulary, chunk_copy, copy_rng


class ChunkCopyBackend(Backend):
    """Completes a transcript with ``synth.chunk_copy`` of its reference and
    counts its calls."""

    uses_seed = True

    def __init__(self, p: float, vocab: Vocabulary) -> None:
        self.p = p
        self.vocab = vocab
        self.name = f"chunk-copy:{p:g}"
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, transcript, params) -> str:
        with self._lock:
            self.calls += 1
        rng = copy_rng(params.seed, transcript.reference_text)
        return chunk_copy(transcript.reference_tokens, self.p, rng, self.vocab)
