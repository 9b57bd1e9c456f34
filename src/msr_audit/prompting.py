"""Segmentation of tokenized documents and construction of faux conversation
transcripts that hold out the final segment as the reference to be completed.
"""

from __future__ import annotations

from dataclasses import dataclass

from msr_audit.corpus import TokenizedDocument

DEFAULT_SYSTEM_PROMPT = "complete the paragraph"

USER = "user"
ASSISTANT = "assistant"


@dataclass(frozen=True)
class Segmentation:
    """An ordered split of a document into ``n`` contiguous token ranges.

    ``bounds`` are half-open [start, end) token-index intervals that partition
    [0, token_count) with no gaps; lengths differ by at most one, longer
    segments first.
    """

    n: int
    bounds: tuple[tuple[int, int], ...]

    def lengths(self) -> list[int]:
        return [end - start for start, end in self.bounds]


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
    def from_text(cls, text: str) -> GeneratedCompletion:
        return cls(text=text, tokens=tuple(text.split()))


def segment(doc: TokenizedDocument, n: int) -> Segmentation:
    """Split a document into ``n`` balanced segments at token boundaries.

    ``n`` must be even and at least 2, and the document must have at least
    ``n`` tokens. With m tokens, the first (m mod n) segments get ceil(m/n)
    tokens and the rest floor(m/n), so remainder tokens go to the front.
    """
    if n < 2:
        raise ValueError(f"segment count must be >= 2, got {n}")
    if n % 2 != 0:
        raise ValueError(f"segment count must be even, got {n}")
    m = len(doc.tokens)
    if m < n:
        raise ValueError(f"document {doc.id!r} has {m} tokens, fewer than {n} segments")
    base, extra = divmod(m, n)
    bounds = []
    start = 0
    for i in range(n):
        size = base + 1 if i < extra else base
        bounds.append((start, start + size))
        start += size
    return Segmentation(n=n, bounds=tuple(bounds))


def render_segment(doc: TokenizedDocument, token_range: tuple[int, int]) -> str:
    """Exact character slice of the original text spanning a token range.

    Whitespace between the range's tokens is preserved as-is; whitespace
    outside the first and last token is excluded.
    """
    start, end = token_range
    if not (0 <= start < end <= len(doc.tokens)):
        raise ValueError(f"token range [{start}, {end}) out of bounds for {len(doc.tokens)} tokens")
    return doc.text[doc.tokens[start, 0] : doc.tokens[end - 1, 1]]


def build_transcript(
    doc: TokenizedDocument,
    seg: Segmentation,
    system_prompt: str = DEFAULT_SYSTEM_PROMPT,
) -> Transcript:
    """Build the faux conversation for a segmentation of ``doc``.

    Odd-numbered segments (1st, 3rd, ...) become user turns and even-numbered
    ones assistant turns, except the last segment, which is held out as the
    reference the backend is asked to produce.
    """
    if not seg.bounds or seg.bounds[0][0] != 0 or seg.bounds[-1][1] != len(doc.tokens):
        raise ValueError("segmentation does not cover the document")
    if any(a[1] != b[0] for a, b in zip(seg.bounds, seg.bounds[1:])):
        raise ValueError("segmentation does not cover the document")

    turns = tuple(
        Turn(role=USER if i % 2 == 0 else ASSISTANT, text=render_segment(doc, bounds))
        for i, bounds in enumerate(seg.bounds[:-1])
    )
    reference_text = render_segment(doc, seg.bounds[-1])
    return Transcript(
        system_prompt=system_prompt,
        turns=turns,
        reference_text=reference_text,
        # The slice runs from its first token's start to its last token's
        # end, and tokenize splits where str.split does, so this yields
        # exactly the reference's tokens.
        reference_tokens=tuple(reference_text.split()),
    )


def format_transcript(transcript: Transcript) -> str:
    """Human-readable rendering of a transcript, for debugging."""
    lines = [f"System: {transcript.system_prompt}"]
    for turn in transcript.turns:
        lines.append(f"{turn.role.capitalize()}: {turn.text}")
    lines.append(f"[held-out reference] {transcript.reference_text}")
    return "\n".join(lines)
