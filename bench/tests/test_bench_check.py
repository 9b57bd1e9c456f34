"""Self-tests of the benchmark's independent output check."""

from __future__ import annotations

import json
import random

from check import check_frequencies, check_summary, expected_for, maximal_match_lengths, prepare
from synth import Vocabulary, chunk_copy, copy_rng, write_corpus
from workloads import COPY_P, L_MAX, L_MIN


def brute_force_match_lengths(a, b):
    """Every (start pair, length) whose run is common and extendable on
    neither side, by direct scan."""
    lengths = []
    for i in range(len(a)):
        for j in range(len(b)):
            k = 0
            while i + k < len(a) and j + k < len(b) and a[i + k] == b[j + k]:
                k += 1
                left_open = i > 0 and j > 0 and a[i - 1] == b[j - 1]
                right_open = i + k < len(a) and j + k < len(b) and a[i + k] == b[j + k]
                if not left_open and not right_open:
                    lengths.append(k)
    return sorted(lengths)


def test_matcher_agrees_with_brute_force_on_random_pairs():
    rng = random.Random(7)
    for _ in range(500):
        alphabet = "abcd"[: rng.randint(1, 4)]
        a = rng.choices(alphabet, k=rng.randint(0, 14))
        b = rng.choices(alphabet, k=rng.randint(0, 14))
        assert sorted(maximal_match_lengths(a, b)) == brute_force_match_lengths(a, b), (a, b)


def test_chunk_copy_gives_runs_of_every_counted_length():
    vocab = Vocabulary(11)
    reference = vocab.sample(random.Random(11), 3000)
    completion = chunk_copy(reference, COPY_P["pre"], copy_rng(11, "ref"), vocab)
    lengths = set(maximal_match_lengths(reference, completion.split()))
    assert set(range(L_MIN, L_MAX + 1)) <= lengths


def test_prepare_agrees_with_the_package_segmentation():
    from msr_audit.corpus import Document, tokenize_document, truncate
    from msr_audit.prompting import build_transcript, segment

    vocab = Vocabulary(3)
    rng = random.Random(3)
    for n_words in (12, 13, 97, 250):
        text = "  " + "\n".join(vocab.sample(rng, n_words)) + " \n"
        for shots, cut in ((2, None), (6, None), (6, 50)):
            doc = tokenize_document(Document(id="d", cohort="pre", text=text))
            if cut is not None:
                doc = truncate(doc, cut)
            transcript = build_transcript(doc, segment(doc, shots))
            prep = prepare(text, shots, cut)
            assert prep.turns == tuple(turn.text for turn in transcript.turns)
            assert prep.reference_text == transcript.reference_text
            assert prep.reference_tokens == transcript.reference_tokens


def _audit(tmp_path):
    """A small audit with the benchmark's mock, its report and the expected
    results of every document."""
    from msr_audit import ExperimentConfig, emit_report, load_corpus, run_audit

    from backend import ChunkCopyBackend

    seed = 5
    vocab = Vocabulary(seed)
    params = {"docs_per_cohort": 4, "lengths": ("uniform", 300, 600)}
    paths = write_corpus(tmp_path, seed, params, vocab)
    corpus = load_corpus(paths["pre"], "pre") + load_corpus(paths["post"], "post")
    backends = {cohort: ChunkCopyBackend(p, vocab) for cohort, p in COPY_P.items()}
    config = ExperimentConfig(shots=2, l_min=L_MIN, l_max=L_MAX, min_words=100, max_in_flight=2, seed=seed)
    out = tmp_path / "report"
    emit_report(run_audit(corpus, config, backends), out)
    expected = {}
    for doc in corpus:
        prep = prepare(doc.text, 2)
        completion = chunk_copy(prep.reference_tokens, COPY_P[doc.cohort], copy_rng(seed, prep.reference_text), vocab)
        expected[doc.id] = expected_for(prep, completion, L_MIN, L_MAX)
    summary = json.loads((out / "summary.json").read_text())
    csv_text = (out / "frequencies.csv").read_text()
    return summary, csv_text, expected


def test_check_passes_a_correct_report(tmp_path):
    summary, csv_text, expected = _audit(tmp_path)
    assert any(e.longest >= L_MIN for e in expected.values())
    assert check_summary(summary, expected) == []
    assert check_frequencies(csv_text, summary, L_MIN, L_MAX) == []


def test_corrupted_per_document_count_is_caught(tmp_path):
    summary, csv_text, expected = _audit(tmp_path)
    summary["documents"][3]["counts"][0] += 1
    problems = check_summary(summary, expected)
    assert len(problems) == 1 and summary["documents"][3]["doc_id"] in problems[0]
    assert check_frequencies(csv_text, summary, L_MIN, L_MAX) != []


def test_corrupted_frequencies_row_is_caught(tmp_path):
    summary, csv_text, _ = _audit(tmp_path)
    lines = csv_text.splitlines()
    k, pre, post = lines[1].split(",")
    lines[1] = f"{k},{int(pre) + 1},{post}"
    assert check_frequencies("\n".join(lines) + "\n", summary, L_MIN, L_MAX) != []
