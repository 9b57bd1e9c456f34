"""Splitting of tokenized documents into segments and construction of faux conversation
transcripts that hold out the final segment as the reference to be completed.
"""

from __future__ import annotations

from dataclasses import dataclass

from msr_audit.corpus import TokenizedDocument, words

DEFAULT_SYSTEM_PROMPT = "complete the paragraph"

USER = "user"
ASSISTANT = "assistant"


@dataclass(frozen=True)
class Turn:
    role: str
    text: str


@dataclass(frozen=True)
class Transcript:
    """The faux conversation plus the held-out final segment.

    ``turns`` strictly alternate user/assistant, starting and ending with a
    user turn; the reference segment appears in no turn.
    """

    system_prompt: str
    turns: tuple[Turn, ...]
    reference_text: str
    reference_tokens: tuple[str, ...]


@dataclass(frozen=True)
class GeneratedCompletion:
    """A backend completion and its word-token view."""

    text: str
    tokens: tuple[str, ...]

    @classmethod
    def from_text(cls, text: str, lowercase: bool = False) -> GeneratedCompletion:
        return cls(text=text, tokens=words(text, lowercase))


def segment(doc: TokenizedDocument, n: int) -> tuple[tuple[int, int], ...]:
    """Split a document into ``n`` balanced segments at token boundaries.

    Returns the segments' half-open [start, end) token ranges, which tile
    [0, token count) in order. ``n`` must be even and at least 2, and the
    document must have at least ``n`` tokens. With m tokens, the first
    (m mod n) segments get ceil(m/n) tokens and the rest floor(m/n), so
    remainder tokens go to the front.
    """
    if n < 2:
        raise ValueError(f"segment count must be >= 2, got {n}")
    if n % 2 != 0:
        raise ValueError(f"segment count must be even, got {n}")
    m = len(doc.tokens)
    if m < n:
        raise ValueError(f"document {doc.id!r} has {m} tokens, fewer than {n} segments")
    base, extra = divmod(m, n)
    edges = [i * base + min(i, extra) for i in range(n + 1)]
    return tuple(zip(edges, edges[1:]))


def build_transcript(
    doc: TokenizedDocument,
    bounds: tuple[tuple[int, int], ...],
    system_prompt: str = DEFAULT_SYSTEM_PROMPT,
) -> Transcript:
    """Build the faux conversation for ``doc`` split at ``bounds``: an even
    number of non-empty token ranges that tile [0, token count) in order, as
    ``segment`` returns them. Each segment is the text from its first token's
    start to its last token's end, whitespace between its tokens included.

    Odd-numbered segments (1st, 3rd, ...) become user turns and even-numbered
    ones assistant turns, except the last segment, which is held out as the
    reference the backend is asked to produce.
    """
    ends = [0] + [end for _, end in bounds]
    chained = all(prev == start < end for prev, (start, end) in zip(ends, bounds))
    if not bounds or len(bounds) % 2 or ends[-1] != len(doc.tokens) or not chained:
        raise ValueError("segmentation does not cover the document in an even number of non-empty segments")

    texts = [doc.text[doc.tokens[start, 0] : doc.tokens[end - 1, 1]] for start, end in bounds]
    turns = tuple(Turn(role=USER if i % 2 == 0 else ASSISTANT, text=text) for i, text in enumerate(texts[:-1]))
    return Transcript(
        system_prompt=system_prompt,
        turns=turns,
        reference_text=texts[-1],
        # The slice spans whole tokens, so its words are the segment's tokens.
        reference_tokens=words(texts[-1]),
    )


def format_transcript(transcript: Transcript) -> str:
    """Human-readable rendering of a transcript, for debugging."""
    lines = [f"System: {transcript.system_prompt}"]
    for turn in transcript.turns:
        lines.append(f"{turn.role.capitalize()}: {turn.text}")
    lines.append(f"[held-out reference] {transcript.reference_text}")
    return "\n".join(lines)
