from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from msr_audit.corpus import Document, tokenize_document
from msr_audit.prompting import (
    DEFAULT_SYSTEM_PROMPT,
    build_transcript,
    format_transcript,
    render_segment,
    segment,
)


def _doc(n_words, text=None):
    body = text if text is not None else " ".join(f"w{i}" for i in range(n_words))
    return tokenize_document(Document(id="d", cohort="pre", text=body))


def _lengths(bounds):
    return [end - start for start, end in bounds]


def test_segment_75_words_into_6():
    bounds = segment(_doc(75), 6)
    assert _lengths(bounds) == [13, 13, 13, 12, 12, 12]
    assert bounds[0] == (0, 13)
    assert bounds[-1] == (63, 75)


def test_segment_even_split():
    assert _lengths(segment(_doc(60), 6)) == [10] * 6


@given(
    m=st.integers(min_value=2, max_value=400),
    half_n=st.integers(min_value=1, max_value=12),
)
def test_segment_partition_properties(m, half_n):
    n = 2 * half_n
    if m < n:
        with pytest.raises(ValueError):
            segment(_doc(m), n)
        return
    bounds = segment(_doc(m), n)
    lengths = _lengths(bounds)
    assert len(lengths) == n
    assert sum(lengths) == m
    assert max(lengths) - min(lengths) <= 1
    assert lengths == sorted(lengths, reverse=True)  # remainder goes to the front
    # bounds tile [0, m) with no gaps
    assert bounds[0][0] == 0 and bounds[-1][1] == m
    assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))


@pytest.mark.parametrize("n", [0, 1, 3, 5, 7])
def test_segment_rejects_odd_or_tiny_counts(n):
    with pytest.raises(ValueError):
        segment(_doc(100), n)


def test_segment_rejects_short_documents():
    with pytest.raises(ValueError, match="fewer than"):
        segment(_doc(5), 6)


def test_render_segment_is_exact_slice():
    doc = _doc(0, text="a  b\tc   d e")
    bounds = segment(doc, 4)  # [2, 1, 1, 1]
    assert render_segment(doc, bounds[0]) == "a  b"
    assert render_segment(doc, bounds[1]) == "c"
    assert render_segment(doc, (0, 5)) == "a  b\tc   d e"
    with pytest.raises(ValueError):
        render_segment(doc, (0, 6))
    with pytest.raises(ValueError):
        render_segment(doc, (3, 3))


def test_build_transcript_roles_and_reference():
    doc = _doc(60)
    transcript = build_transcript(doc, segment(doc, 6))
    assert transcript.system_prompt == DEFAULT_SYSTEM_PROMPT
    # 6 segments: 5 faux turns (3 user + 2 assistant), last segment held out
    assert [t.role for t in transcript.turns] == ["user", "assistant", "user", "assistant", "user"]
    assert transcript.reference_tokens == tuple(f"w{i}" for i in range(50, 60))
    assert transcript.reference_text == " ".join(f"w{i}" for i in range(50, 60))
    assert all(transcript.reference_text != turn.text for turn in transcript.turns)


def test_build_transcript_custom_system_prompt():
    doc = _doc(12)
    transcript = build_transcript(doc, segment(doc, 2), system_prompt="finish it")
    assert transcript.system_prompt == "finish it"
    assert len(transcript.turns) == 1 and transcript.turns[0].role == "user"


def test_build_transcript_turns_reassemble_document():
    doc = _doc(59)
    bounds = segment(doc, 6)
    transcript = build_transcript(doc, bounds)
    pieces = [turn.text for turn in transcript.turns] + [transcript.reference_text]
    assert " ".join(pieces) == doc.text


def test_build_transcript_rejects_bad_segmentation():
    doc = _doc(10)
    with pytest.raises(ValueError, match="cover"):
        build_transcript(doc, ((0, 4), (5, 10)))  # gap
    with pytest.raises(ValueError, match="cover"):
        build_transcript(doc, ((0, 4), (4, 9)))  # short
    with pytest.raises(ValueError, match="cover"):
        build_transcript(doc, ())


@given(st.integers(min_value=8, max_value=200), st.sampled_from([2, 4, 6, 8]))
def test_reference_tokens_match_final_segment(m, n):
    if m < n:
        return
    doc = _doc(m)
    bounds = segment(doc, n)
    transcript = build_transcript(doc, bounds)
    start, end = bounds[-1]
    assert transcript.reference_tokens == doc.token_texts[start:end]


@pytest.mark.parametrize("n", [2, 4, 6])
def test_reference_tokens_split_on_unicode_whitespace(n):
    separators = ["\u3000", "\u00a0", "\u2028", " \u3000\t", "\u00a0\u2028"]
    words = [f"w{i}" for i in range(40)] + ["\ufeffbom", "zero\u200bwidth", "\U0001f600"]
    body = "\u2028" + "".join(w + separators[i % len(separators)] for i, w in enumerate(words))
    doc = _doc(0, text=body)
    assert doc.token_texts == tuple(words)
    bounds = segment(doc, n)
    start, end = bounds[-1]
    transcript = build_transcript(doc, bounds)
    assert transcript.reference_tokens == doc.token_texts[start:end]


def test_format_transcript_renders_all_parts():
    doc = _doc(12)
    rendered = format_transcript(build_transcript(doc, segment(doc, 4)))
    lines = rendered.splitlines()
    assert lines[0] == f"System: {DEFAULT_SYSTEM_PROMPT}"
    assert lines[1].startswith("User: ")
    assert lines[2].startswith("Assistant: ")
    assert lines[3].startswith("User: ")
    assert lines[4].startswith("[held-out reference] ")
