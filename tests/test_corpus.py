from __future__ import annotations

import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import oracle_token_spans, token_texts

from msr_audit.corpus import (
    CorpusError,
    Document,
    filter_by_length,
    load_corpus,
    tokenize,
    tokenize_document,
    truncate,
)


def _words(text, spans):
    return [text[start:end] for start, end in spans.tolist()]


def test_tokenize_basic_spans():
    text = "the  cat\tsat\n on the mat."
    spans = tokenize(text)
    assert _words(text, spans) == ["the", "cat", "sat", "on", "the", "mat."]
    assert spans[0].tolist() == [0, 3]
    assert spans[1].tolist() == [5, 8]


def test_tokenize_empty_and_whitespace_only():
    assert tokenize("").shape == (0, 2)
    assert tokenize("  \t\n ").shape == (0, 2)


class _LongText(str):
    """A short string that reports 2**31 code points."""

    def __len__(self):
        return 2**31


def test_tokenize_rejects_text_past_int32_offsets():
    with pytest.raises(CorpusError, match="2\\*\\*31"):
        tokenize(_LongText("a b"))


def test_tokenize_keeps_punctuation_attached():
    text = "don't stop, (ever)!"
    assert _words(text, tokenize(text)) == ["don't", "stop,", "(ever)!"]


@given(st.text(max_size=200))
def test_tokenize_spans_recover_token_text(text):
    spans = tokenize(text)
    for word in _words(text, spans):
        assert word
        assert not any(c.isspace() for c in word)
    # tokens appear left to right without overlap
    flat = spans.ravel().tolist()
    assert flat == sorted(flat)
    assert _words(text, spans) == text.split()


@given(st.text(max_size=200))
def test_tokenize_is_stable_under_respacing(text):
    words = _words(text, tokenize(text))
    respaced = " ".join(words)
    assert _words(respaced, tokenize(respaced)) == words


# Every str.isspace() code point, plus what must not count as whitespace:
# lone surrogates, code points above U+3000, U+FEFF and U+200B.
_WHITESPACE = [chr(c) for c in range(0x110000) if chr(c).isspace()]
_NOT_WHITESPACE = ["a", "Z", "\ud800", "\udfff", "\U0001f600", "\U0010ffff", "\ufeff", "\u200b", "\u3001"]


def test_whitespace_alphabet_is_complete():
    assert len(_WHITESPACE) == 29
    assert max(map(ord, _WHITESPACE)) == 0x3000


@given(st.lists(st.sampled_from(_WHITESPACE + _NOT_WHITESPACE), max_size=60).map("".join))
def test_tokenize_matches_regex_oracle(text):
    assert [tuple(span) for span in tokenize(text).tolist()] == oracle_token_spans(text)


# Words of up to 20 characters, past the 8 a word the first prefix allows,
# after single Unicode whitespace characters or long runs of it.
_GAPS = st.one_of(
    st.sampled_from([" ", "\u3000", "\x85", "\u2028", "\t\n"]),
    st.integers(2, 40).map(lambda n: " \u3000" * (n // 2)),
)
_WORDS = st.text(alphabet="ab\u00e9\U0001f600", min_size=1, max_size=20)


@given(st.lists(st.tuples(_GAPS, _WORDS).map("".join), max_size=30).map("".join), _GAPS)
def test_tokenize_limit_keeps_the_first_spans_of_a_full_scan(text, tail):
    text += tail
    full = tokenize(text)
    for limit in range(1, len(full) + 3):
        spans = tokenize(text, limit)
        assert spans.tolist() == full[:limit].tolist()
        assert spans.dtype == np.int32 and not spans.flags.writeable


def test_tokenize_limit_below_one_is_rejected():
    with pytest.raises(ValueError, match="limit"):
        tokenize("a b", 0)


def test_tokenize_document_limit():
    doc = Document(id="d", cohort="pre", text="One two  Three\u3000four five")
    tokenized = tokenize_document(doc, limit=3)
    assert tokenized.text == doc.text
    assert _words(tokenized.text, tokenized.tokens) == ["One", "two", "Three"]


def test_tokenize_document_memory_and_read_only():
    rng = random.Random(8000)
    text = " ".join(f"w{rng.randrange(20_000)}" for _ in range(8000))
    doc = Document(id="d", cohort="pre", text=text)
    tracemalloc.start()
    try:
        tokenized = tokenize_document(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tokenized.tokens) == 8000
    assert tokenized.tokens.dtype == np.int32
    assert peak < 1_000_000, f"tokenize_document peaked at {peak} bytes"
    assert not tokenized.tokens.flags.writeable
    with pytest.raises(ValueError):
        tokenized.tokens[0, 0] = 1
    assert not truncate(tokenized, 10).tokens.flags.writeable


def test_document_validation():
    with pytest.raises(CorpusError):
        Document(id="", cohort="pre", text="x")
    with pytest.raises(CorpusError, match="cohort"):
        Document(id="a", cohort="during", text="x")
    with pytest.raises(CorpusError, match="non-empty"):
        Document(id="a", cohort="post", text="")


def test_document_rejects_whitespace_only_text():
    with pytest.raises(CorpusError, match="non-empty"):
        Document(id="a", cohort="pre", text="   \n ")


def _write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_load_corpus_round_trip(tmp_path):
    records = [
        {"id": "a", "cohort": "pre", "text": "one two three"},
        {"id": "b", "cohort": "post", "text": "x y", "source": "feed", "published_at": "2024-05-01"},
    ]
    path = _write_lines(tmp_path / "c.jsonl", [json.dumps(r) for r in records])
    docs = load_corpus(path)
    assert [d.id for d in docs] == ["a", "b"]
    assert [(d.cohort, d.text) for d in docs] == [("pre", "one two three"), ("post", "x y")]


def test_load_corpus_skips_blank_lines(tmp_path):
    path = _write_lines(
        tmp_path / "c.jsonl",
        ['{"id": "a", "cohort": "pre", "text": "t"}', "", "   ", '{"id": "b", "cohort": "post", "text": "t"}'],
    )
    assert [d.id for d in load_corpus(path)] == ["a", "b"]


def test_load_corpus_reports_line_numbers(tmp_path):
    path = _write_lines(
        tmp_path / "c.jsonl",
        ['{"id": "a", "cohort": "pre", "text": "t"}', "{not json"],
    )
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path)


@pytest.mark.parametrize("separator", ["\u0085", "\u2028", "\u2029"])
def test_load_corpus_keeps_unicode_line_separators_inside_records(tmp_path, separator):
    # json.dumps(ensure_ascii=False) writes these characters unescaped.
    text = f"one{separator}two three"
    lines = [json.dumps({"id": "a", "cohort": "pre", "text": text}, ensure_ascii=False)]
    lines += ['{"id": "b", "cohort": "post", "text": "t"}', "{not json"]
    path = _write_lines(tmp_path / "c.jsonl", lines)
    assert separator in path.read_text(encoding="utf-8")
    with pytest.raises(CorpusError, match="line 3"):
        load_corpus(path)
    _write_lines(path, lines[:2])
    assert [(d.id, d.text) for d in load_corpus(path)] == [("a", text), ("b", "t")]


def test_load_corpus_skips_a_byte_order_mark(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_bytes(b"\xef\xbb\xbf" + b'{"id": "a", "cohort": "pre", "text": "t"}\n{not json\n')
    with pytest.raises(CorpusError, match="line 2"):
        load_corpus(path)
    path.write_bytes(b"\xef\xbb\xbf" + b'{"id": "a", "cohort": "pre", "text": "t"}\n')
    assert [(d.id, d.text) for d in load_corpus(path)] == [("a", "t")]


def test_load_corpus_reads_crlf_files(tmp_path):
    path = tmp_path / "c.jsonl"
    records = ['{"id": "a", "cohort": "pre", "text": "x\\r\\ny"}', "", '{"id": "b", "cohort": "post", "text": "t"}']
    path.write_bytes("\r\n".join(records).encode("utf-8") + b"\r\n")
    assert [(d.id, d.text) for d in load_corpus(path)] == [("a", "x\r\ny"), ("b", "t")]
    path.write_bytes("\r\n".join(records + ["{not json"]).encode("utf-8"))
    with pytest.raises(CorpusError, match="line 4"):
        load_corpus(path)


@pytest.mark.parametrize(
    "record, message",
    [
        ('{"cohort": "pre", "text": "t"}', "missing required field 'id'"),
        ('{"id": "a", "text": "t"}', "missing required field 'cohort'"),
        ('{"id": "a", "cohort": "pre"}', "missing required field 'text'"),
        ('{"id": 5, "cohort": "pre", "text": "t"}', "must be a string"),
        ('{"id": "a", "cohort": "mid", "text": "t"}', "cohort"),
        ("[1, 2]", "expected a JSON object"),
        ('{"id": "blank", "cohort": "pre", "text": "   \\n "}', "line 1: .*'blank'.*non-empty"),
    ],
)
def test_load_corpus_rejects_malformed_records(tmp_path, record, message):
    path = _write_lines(tmp_path / "c.jsonl", [record])
    with pytest.raises(CorpusError, match=message):
        load_corpus(path)


def test_load_corpus_rejects_duplicate_ids(tmp_path):
    path = _write_lines(
        tmp_path / "c.jsonl",
        ['{"id": "a", "cohort": "pre", "text": "t"}', '{"id": "a", "cohort": "post", "text": "u"}'],
    )
    with pytest.raises(CorpusError, match="duplicate document id"):
        load_corpus(path)


def test_load_corpus_missing_file():
    with pytest.raises(CorpusError, match="cannot read"):
        load_corpus("/nonexistent/corpus.jsonl")


def test_load_corpus_cohort_override(tmp_path):
    # with an override the per-record cohort field becomes optional
    path = _write_lines(
        tmp_path / "c.jsonl",
        ['{"id": "a", "text": "t"}', '{"id": "b", "cohort": "pre", "text": "t"}'],
    )
    docs = load_corpus(path, cohort_override="post")
    assert [d.cohort for d in docs] == ["post", "post"]
    with pytest.raises(CorpusError, match="cohort_override"):
        load_corpus(path, cohort_override="neither")


def _tok(n):
    return tokenize_document(Document(id="d", cohort="pre", text=" ".join(f"w{i}" for i in range(n))))


def test_filter_by_length_is_strict():
    docs = [_tok(9), _tok(10), _tok(11)]
    kept = filter_by_length(docs, 10)
    assert [len(d.tokens) for d in kept] == [11]
    assert [len(d.tokens) for d in filter_by_length(docs, 0)] == [9, 10, 11]
    with pytest.raises(ValueError):
        filter_by_length(docs, -1)


def test_truncate():
    doc = _tok(10)
    cut = truncate(doc, 4)
    assert len(cut.tokens) == 4
    assert token_texts(cut) == ("w0", "w1", "w2", "w3")
    assert cut.text == doc.text  # spans still index the original text
    assert truncate(doc, 10) is doc
    assert truncate(doc, 99) is doc
    with pytest.raises(ValueError):
        truncate(doc, 0)
