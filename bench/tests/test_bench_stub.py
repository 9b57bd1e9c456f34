"""Self-tests of the live stub: its 429 schedule and its answers."""

from __future__ import annotations

import json
import urllib.request
from types import SimpleNamespace

from check import expected_for, prepare
from run import start_stub
from stub import Responder
from synth import Vocabulary, write_corpus
from workloads import L_MAX, L_MIN


def test_429_schedule_gives_the_expected_requests_per_doc(tmp_path):
    from msr_audit import ExperimentConfig, LiveBackend, emit_report, load_corpus, run_audit

    seed, every, per_cohort = 9, 4, 9
    write_corpus(tmp_path, seed, {"docs_per_cohort": per_cohort, "lengths": ("uniform", 100, 140)}, Vocabulary(seed))
    stub, url = start_stub(tmp_path, SimpleNamespace(seed=seed), {"service_delay_s": 0.0, "http_429_every": every})
    try:
        corpus = load_corpus(tmp_path / "pre.jsonl", "pre") + load_corpus(tmp_path / "post.jsonl", "post")
        config = ExperimentConfig(
            backend="live", shots=6, l_min=L_MIN, l_max=L_MAX, min_words=50, max_in_flight=2,
            cache_path=str(tmp_path / "cache.jsonl"),
        )
        report = run_audit(corpus, config, LiveBackend(url, timeout=10.0, backoff_base=0.001))
        with urllib.request.urlopen(url + "/stats", timeout=10) as resp:
            counts = json.load(resp)
    finally:
        stub.terminate()
        stub.wait(timeout=10)

    docs = 2 * per_cohort
    assert report.n_docs_pre + report.n_docs_post == docs
    # Every k-th POST is refused and retried, so D documents take the
    # smallest R requests with R - floor(R / k) == D successes.
    expected_requests = docs + (docs - 1) // (every - 1)
    assert counts == {"posts": expected_requests, "http_429": expected_requests - docs}
    assert counts["posts"] / docs == 23 / 18  # requests_per_doc

    emit_report(report, tmp_path / "report")
    summary = json.loads((tmp_path / "report" / "summary.json").read_text())
    responder = Responder(seed, {c: tmp_path / f"{c}.jsonl" for c in ("pre", "post")})
    for doc in corpus:
        prep = prepare(doc.text, 6)
        want = expected_for(prep, responder.complete(list(prep.turns)), L_MIN, L_MAX)
        got = next(d for d in summary["documents"] if d["doc_id"] == doc.id)
        assert (got["longest_match"], tuple(got["counts"])) == (want.longest, want.counts)
