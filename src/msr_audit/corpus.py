"""Loading, validation, tokenization and trimming of cohort-labeled corpora.

A corpus file is UTF-8 JSON lines (a leading byte-order mark is skipped), one
document per line with required fields "id", "text" and "cohort" ("pre" |
"post"); other fields are ignored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

COHORTS = ("pre", "post")

# str.isspace() per code point. All 29 whitespace code points are at or below
# U+3000, so the last entry (U+3001, not whitespace) stands for every code
# point above it: lookups clip to it.
_IS_SPACE = np.array([chr(c).isspace() for c in range(0x3002)])


class CorpusError(Exception):
    """Raised for unreadable or malformed corpus data."""


@dataclass(frozen=True)
class Document:
    """One source text labeled with its cohort."""

    id: str
    cohort: str
    text: str

    def __post_init__(self) -> None:
        if not self.id:
            raise CorpusError("document id must be non-empty")
        if self.cohort not in COHORTS:
            raise CorpusError(f"cohort must be one of {COHORTS}, got {self.cohort!r}")
        if not self.text or self.text.isspace():
            raise CorpusError(f"document {self.id!r}: text must be non-empty and not only whitespace")


@dataclass(frozen=True, eq=False)
class TokenizedDocument:
    """Word-token view of a document.

    ``tokens`` is a read-only (n, 2) int32 array of half-open character
    spans into ``text``, one row per word (8 bytes a word), for the first
    words up to the tokenizing limit, so ``len(tokens)`` is min(word count,
    limit). Equality is identity, as numpy arrays have no single truth value.
    """

    id: str
    cohort: str
    text: str
    tokens: np.ndarray


def _spans(text: str) -> np.ndarray:
    """Every word span of ``text``, as ``tokenize`` returns them."""
    if len(text) >= 2**31:
        raise CorpusError(f"text has {len(text)} code points; int32 token offsets need fewer than 2**31")
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    space = np.ones(len(codes) + 2, dtype=bool)
    _IS_SPACE.take(codes, out=space[1:-1], mode="clip")
    return np.flatnonzero(np.diff(space)).astype(np.int32).reshape(-1, 2)


def tokenize(text: str, limit: int | None = None) -> np.ndarray:
    """Spans of the maximal runs of non-whitespace characters in ``text``.

    Returns a read-only (n, 2) int32 array of half-open [start, end)
    code-point offsets, left to right: 8 bytes a word. Whitespace is what
    ``str.isspace`` says, so ``text.split()`` yields exactly the words the
    spans cover. Case is preserved and punctuation stays attached to its
    word, so matching downstream is strictly verbatim. Empty text yields
    shape (0, 2). A text of 2**31 or more code points, whose offsets int32
    cannot hold, raises ``CorpusError`` when it has to be scanned whole.

    With a ``limit`` (at least 1), only the first ``limit`` spans are
    returned, so n is min(word count, limit). They come from a prefix of the
    text that holds more than ``limit`` words: the next word starts after
    the last kept one ends, so the kept spans are those of a full scan. The
    prefix starts at 8 characters a word and doubles, so no text costs much
    more than one full scan; a text with no such prefix is scanned whole.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"word limit must be >= 1, got {limit}")
    end = len(text) if limit is None else 8 * limit
    while True:
        whole = end >= len(text)
        spans = _spans(text if whole else text[:end])
        if limit is not None and len(spans) > limit:
            spans = spans[:limit].copy()
            break
        if whole:
            break
        end *= 2
    spans.flags.writeable = False
    return spans


def tokenize_document(doc: Document, limit: int | None = None) -> TokenizedDocument:
    """Tokenize a document's text as written. ``limit`` keeps only the first
    ``limit`` words, as in ``tokenize``, so ``len(tokens)`` is min(word
    count, limit).
    """
    return TokenizedDocument(id=doc.id, cohort=doc.cohort, text=doc.text, tokens=tokenize(doc.text, limit))


def _parse_record(raw: dict, lineno: int, cohort_override: str | None) -> Document:
    if not isinstance(raw, dict):
        raise CorpusError(f"line {lineno}: expected a JSON object")
    for field in ("id", "text"):
        if field not in raw:
            raise CorpusError(f"line {lineno}: missing required field {field!r}")
        if not isinstance(raw[field], str):
            raise CorpusError(f"line {lineno}: field {field!r} must be a string")
    if cohort_override is None and "cohort" not in raw:
        raise CorpusError(f"line {lineno}: missing required field 'cohort'")
    cohort = cohort_override if cohort_override is not None else raw["cohort"]
    try:
        return Document(id=raw["id"], cohort=cohort, text=raw["text"])
    except CorpusError as exc:
        raise CorpusError(f"line {lineno}: {exc}") from exc


def load_corpus(path: str | Path, cohort_override: str | None = None) -> list[Document]:
    """Load all documents from a JSON-lines corpus file, in file order.

    Args:
        path: corpus file path.
        cohort_override: if given, assigns this cohort to every record instead
            of reading the per-record "cohort" field.

    Raises:
        CorpusError: unreadable file, malformed line (reported with its line
            number), duplicate id, or missing required field.
    """
    if cohort_override is not None and cohort_override not in COHORTS:
        raise CorpusError(f"cohort_override must be one of {COHORTS}, got {cohort_override!r}")
    path = Path(path)
    try:
        raw_lines = path.read_text(encoding="utf-8-sig").split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from exc

    docs: list[Document] = []
    seen: set[str] = set()
    for lineno, line in enumerate(raw_lines, start=1):
        if not line.strip():
            continue
        try:
            raw = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
        try:
            doc = _parse_record(raw, lineno, cohort_override)
        except CorpusError as exc:
            raise CorpusError(f"{path}: {exc}") from exc
        if doc.id in seen:
            raise CorpusError(f"{path}: line {lineno}: duplicate document id {doc.id!r}")
        seen.add(doc.id)
        docs.append(doc)
    return docs


def filter_by_length(docs: list[TokenizedDocument], min_words: int) -> list[TokenizedDocument]:
    """Keep documents with strictly more than ``min_words`` tokens, in order."""
    if min_words < 0:
        raise ValueError(f"min_words must be >= 0, got {min_words}")
    return [d for d in docs if len(d.tokens) > min_words]


def truncate(doc: TokenizedDocument, length: int) -> TokenizedDocument:
    """Keep the first ``length`` tokens (original spans); no-op if already shorter."""
    if length < 1:
        raise ValueError(f"truncation length must be >= 1, got {length}")
    if len(doc.tokens) <= length:
        return doc
    return replace(doc, tokens=doc.tokens[:length])
