from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest

from conftest import UNICODE_TEXT, make_corpus, write_corpus_jsonl
from stub_server import StubServer
from msr_audit import Document
from msr_audit.cli import _config_from_args, build_parser, main
from msr_audit.gateway import BackendError, PartialCopyBackend, VerbatimBackend
from msr_audit.runner import ExperimentConfig

pytestmark = pytest.mark.usefixtures("_no_live_env")


@pytest.fixture
def _no_live_env(monkeypatch):
    monkeypatch.delenv("MSR_BASE_URL", raising=False)
    monkeypatch.delenv("MSR_API_KEY", raising=False)


@pytest.fixture
def corpus_files(tmp_path):
    docs = make_corpus(n_pre=3, n_post=3, words=120)
    pre = write_corpus_jsonl(tmp_path / "pre.jsonl", [d for d in docs if d.cohort == "pre"])
    post = write_corpus_jsonl(tmp_path / "post.jsonl", [d for d in docs if d.cohort == "post"])
    return pre, post


def _audit_args(pre, post, out, *extra):
    return [
        "audit",
        "--pre", str(pre),
        "--post", str(post),
        "--out", str(out),
        "--min-words", "50",
        "--lmin", "2",
        "--lmax", "8",
        *extra,
    ]


@pytest.mark.parametrize(
    "argv",
    [["audit", "--pre", "p", "--post", "q"], ["sweep", "shots", "--values", "2", "--pre", "p", "--post", "q"]],
)
def test_run_option_defaults_are_the_config_defaults(argv):
    assert _config_from_args(build_parser().parse_args(argv)) == ExperimentConfig()


def test_audit_writes_report_and_prints_comparison(corpus_files, tmp_path, capsys):
    pre, post = corpus_files
    out = tmp_path / "report"
    code = main(_audit_args(pre, post, out, "--backend-pre", "verbatim", "--backend-post", "oblivious"))
    assert code == 0

    stdout = capsys.readouterr().out.splitlines()
    comparison = json.loads(stdout[0])
    assert comparison["delta"] == -1.0
    assert comparison["ks"] == 1.0
    assert (out / "summary.json").exists()
    assert (out / "frequencies.csv").read_text().splitlines()[0] == "k,count_pre,count_post"


def test_audit_summary_names_each_cohorts_backend(corpus_files, tmp_path):
    pre, post = corpus_files
    out = tmp_path / "report"
    assert main(_audit_args(pre, post, out, "--backend-pre", "verbatim", "--backend-post", "oblivious")) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["backends"] == {"pre": "verbatim", "post": "oblivious"}


def test_audit_single_backend_spec(corpus_files, tmp_path, capsys):
    pre, post = corpus_files
    code = main(_audit_args(pre, post, tmp_path / "r", "--backend", "partial:0.5", "--seed", "7"))
    assert code == 0
    comparison = json.loads(capsys.readouterr().out.splitlines()[0])
    assert set(comparison) == {"delta", "ks", "h_statistic", "p_value", "n_first", "n_second"}


_AUDIT_COMPARISON = (
    '{"delta": -0.6049382716049383, "h_statistic": 4.85569831073043, "ks": 0.7777777777777778, '
    '"n_first": 9, "n_second": 9, "p_value": 0.02755495736977658}\n'
)
_AUDIT_FREQUENCIES = "k,count_pre,count_post\n2,14,2\n3,9,2\n4,9,2\n5,8,1\n6,8,1\n7,8,1\n8,8,1\n9,0,0\n10,0,0\n"


def test_audit_output_is_byte_stable(tmp_path, capsys):
    # 3 + 3 documents of 600 words drawn from 40, so references repeat words.
    rng = random.Random(5)
    texts = [" ".join(f"w{rng.randrange(40)}" for _ in range(600)) for _ in range(6)]
    pre = write_corpus_jsonl(tmp_path / "pre.jsonl", [Document(f"pre-{i}", "pre", t) for i, t in enumerate(texts[:3])])
    post = write_corpus_jsonl(tmp_path / "post.jsonl", [Document(f"post-{i}", "post", t) for i, t in enumerate(texts[3:])])
    out = tmp_path / "r"
    backends = ("--backend-pre", "partial:0.35", "--backend-post", "partial:0.05")
    assert main(_audit_args(pre, post, out, "--lmax", "10", *backends, "--seed", "5")) == 0
    summary, frequencies = out / "summary.json", out / "frequencies.csv"
    assert capsys.readouterr().out == _AUDIT_COMPARISON + f"wrote {summary}\nwrote {frequencies}\n"
    assert frequencies.read_bytes() == _AUDIT_FREQUENCIES.encode()


def test_audit_usage_error_exit_1(corpus_files, tmp_path, capsys):
    pre, post = corpus_files
    assert main(_audit_args(pre, post, tmp_path / "r", "--shots", "5")) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("command", "extra"),
    [
        (["audit"], ["--lmin", "5", "--lmax", "5"]),
        # At 6 shots, the 30-word value caps l_max at 30 // 6 = 5 = l_min.
        (["sweep", "length", "--values", "120,30"], ["--lmin", "5"]),
    ],
    ids=["audit", "sweep-length"],
)
def test_one_threshold_fails_before_any_request(corpus_files, tmp_path, monkeypatch, capsys, command, extra):
    pre, post = corpus_files
    calls = []
    monkeypatch.setattr(VerbatimBackend, "complete", lambda *args: calls.append(1) or "")
    out = tmp_path / "r"
    assert main([*command, *_audit_args(pre, post, out, *extra)[1:]]) == 1
    assert "two thresholds" in capsys.readouterr().err
    assert calls == [] and not out.exists()


def test_audit_missing_corpus_exit_2(tmp_path, capsys):
    code = main(_audit_args(tmp_path / "absent.jsonl", tmp_path / "also-absent.jsonl", tmp_path / "r"))
    assert code == 2
    assert "cannot read" in capsys.readouterr().err


def test_audit_malformed_corpus_exit_2(corpus_files, tmp_path, capsys):
    pre, _ = corpus_files
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken json\n", encoding="utf-8")
    assert main(_audit_args(pre, bad, tmp_path / "r")) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_audit_duplicate_ids_across_cohorts_exit_2(corpus_files, tmp_path, capsys):
    pre, _ = corpus_files
    assert main(_audit_args(pre, pre, tmp_path / "r")) == 2
    assert "both cohorts" in capsys.readouterr().err


def test_audit_backend_failure_exit_3(corpus_files, tmp_path, capsys):
    pre, post = corpus_files
    with StubServer([(400, {"error": "denied"})] * 6) as server:
        code = main(_audit_args(pre, post, tmp_path / "r", "--backend", "live", "--base-url", server.url))
    assert code == 3
    assert "empty cohort results" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning")
@pytest.mark.parametrize("command", ["audit", "sweep"])
def test_per_cohort_live_backends_are_closed(corpus_files, tmp_path, command):
    pre, post = corpus_files
    with StubServer(keep_alive=True) as server:
        argv = _audit_args(
            pre, post, tmp_path / "r",
            "--backend", "live", "--backend-pre", "live", "--backend-post", "live",
            "--base-url", server.url, "--concurrency", "2",
        )
        if command == "sweep":
            argv = ["sweep", "shots", "--values", "2,6", *argv[1:]]
        assert main(argv) == 0
    assert len(server.requests) == (6 if command == "audit" else 12)


def test_audit_live_without_url_exit_1(corpus_files, tmp_path, capsys):
    pre, post = corpus_files
    assert main(_audit_args(pre, post, tmp_path / "r", "--backend", "live")) == 1
    assert "MSR_BASE_URL" in capsys.readouterr().err


def _frequencies(out):
    return {path.relative_to(out): path.read_bytes() for path in sorted(out.rglob("frequencies.csv"))}


@pytest.mark.parametrize(
    ("command", "audits"), [(["audit"], 1), (["sweep", "length", "--values", "80,100"], 2)], ids=["audit", "sweep"]
)
def test_rerun_over_cache_rescores_without_requests(corpus_files, tmp_path, monkeypatch, command, audits):
    def argv(out, *extra):
        return [*command, *_audit_args(pre, post, out, "--backend", "partial:0.5", *extra)[1:]]

    pre, post = corpus_files
    cache = tmp_path / "cache.jsonl"
    assert main(argv(tmp_path / "first", "--cache", str(cache))) == 0
    lines = cache.read_bytes()
    fresh = {}
    for i, extra in enumerate([("--lmin", "3"), ("--lmax", "6"), ("--exact-lengths",)]):
        assert main(argv(tmp_path / f"fresh{i}", *extra)) == 0
        fresh[extra] = _frequencies(tmp_path / f"fresh{i}")
        assert fresh[extra] != _frequencies(tmp_path / "first")

    calls = []
    complete = PartialCopyBackend.complete

    def refuse(self, transcript, params):
        calls.append(1)
        raise BackendError("no request may be sent")

    monkeypatch.setattr(PartialCopyBackend, "complete", refuse)
    for i, extra in enumerate(fresh):
        assert main(argv(tmp_path / f"rescored{i}", "--cache", str(cache), *extra)) == 0
        assert _frequencies(tmp_path / f"rescored{i}") == fresh[extra]
    assert calls == []
    assert cache.read_bytes() == lines

    # A new shot count changes every transcript, so every key misses.
    monkeypatch.setattr(PartialCopyBackend, "complete", lambda *args: calls.append(1) or complete(*args))
    assert main(argv(tmp_path / "shots", "--cache", str(cache), "--shots", "4")) == 0
    assert len(calls) == len(cache.read_bytes().splitlines()) - len(lines.splitlines()) == 6 * audits


def test_rerun_over_cache_rescores_lowercase_without_requests(tmp_path, monkeypatch):
    docs = [
        replace(doc, text=" ".join(w.upper() if i % 2 else w for i, w in enumerate(doc.text.split())))
        for doc in make_corpus(n_pre=3, n_post=3, words=120)
    ]
    pre = write_corpus_jsonl(tmp_path / "pre.jsonl", docs[:3])
    post = write_corpus_jsonl(tmp_path / "post.jsonl", docs[3:])
    cache = tmp_path / "cache.jsonl"
    # A completion that copies the reference in the opposite case matches only once folded.
    monkeypatch.setattr(VerbatimBackend, "complete", lambda self, transcript, _: transcript.reference_text.swapcase())
    assert main(_audit_args(pre, post, tmp_path / "first", "--cache", str(cache))) == 0
    assert main(_audit_args(pre, post, tmp_path / "fresh", "--lowercase")) == 0
    assert _frequencies(tmp_path / "fresh") != _frequencies(tmp_path / "first")

    calls = []
    monkeypatch.setattr(VerbatimBackend, "complete", lambda self, transcript, _: calls.append(1) or "")
    assert main(_audit_args(pre, post, tmp_path / "rescored", "--cache", str(cache), "--lowercase")) == 0
    assert calls == []
    assert _frequencies(tmp_path / "rescored") == _frequencies(tmp_path / "fresh")


def test_rerun_over_cache_never_dials_the_live_backend(corpus_files, tmp_path):
    pre, post = corpus_files
    cache = tmp_path / "cache.jsonl"
    with StubServer() as server:
        live = ("--backend", "live", "--base-url", server.url, "--cache", str(cache))
        assert main(_audit_args(pre, post, tmp_path / "first", *live)) == 0
        sent = len(server.requests)
        assert main(_audit_args(pre, post, tmp_path / "rescored", *live, "--lmin", "3", "--exact-lengths")) == 0
    assert sent == 6 and len(server.requests) == sent


def test_argparse_usage_errors_exit_1(capsys):
    for argv in (["audit", "--bogus-flag"], [], ["stats", "a.csv", "b.csv"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1, argv


@pytest.mark.parametrize("command", ["audit", "transcript", "match"])
def test_non_utf8_input_exit_2_names_the_file(corpus_files, tmp_path, capsys, command):
    pre, post = corpus_files
    bad = tmp_path / "latin1.jsonl"
    bad.write_bytes('{"id": "x", "text": "caf\u00e9"}\n'.encode("latin-1"))
    argv = {
        "audit": _audit_args(bad, post, tmp_path / "r"),
        "transcript": ["transcript", "--corpus", str(bad), "--doc", "x"],
        "match": ["match", str(bad), str(pre)],
    }[command]
    assert main(argv) == 2
    assert str(bad) in capsys.readouterr().err


def test_version_flag():
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


def test_sweep_shots_writes_per_value_reports(corpus_files, tmp_path, capsys):
    pre, post = corpus_files
    out = tmp_path / "sweep"
    code = main(
        ["sweep", "shots", "--values", "2,4"]
        + _audit_args(pre, post, out, "--backend-pre", "verbatim", "--backend-post", "oblivious")[1:]
    )
    assert code == 0
    assert (out / "shots_2" / "frequencies.csv").exists()
    assert (out / "shots_4" / "summary.json").exists()
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [line["value"] for line in lines] == [2, 4]
    assert all(line["delta"] == -1.0 for line in lines)


def test_sweep_temperature_emits_low_vs_high(corpus_files, tmp_path, capsys):
    pre, post = corpus_files
    out = tmp_path / "tsweep"
    code = main(
        ["sweep", "temperature", "--values", "0.1", "0.7"]
        + _audit_args(pre, post, out)[1:]
    )
    assert code == 0
    contrast = json.loads((out / "low_vs_high.json").read_text())
    assert contrast["low_vs_high"]["delta"] == 0.0  # mocks ignore temperature
    stdout_lines = capsys.readouterr().out.splitlines()
    assert any("low_vs_high" in line for line in stdout_lines)


def test_sweep_length_bad_value_exit_1(corpus_files, tmp_path, capsys):
    pre, post = corpus_files
    code = main(["sweep", "length", "--values", "60,5"] + _audit_args(pre, post, tmp_path / "s")[1:])
    assert code == 1


def test_sweep_overrides_the_swept_flag(corpus_files, tmp_path):
    # The default 6 shots would leave 16 words 2-word references, below --lmin 3.
    pre, post = corpus_files
    out = tmp_path / "s"
    extra = ("--truncate", "16", "--lmin", "3")
    assert main(["sweep", "shots", "--values", "2,4"] + _audit_args(pre, post, out, *extra)[1:]) == 0
    assert (out / "shots_4" / "frequencies.csv").exists()


def test_sweep_duplicate_values_exit_1(corpus_files, tmp_path, capsys):
    pre, post = corpus_files
    out = tmp_path / "s"
    code = main(["sweep", "shots", "--values", "4,4"] + _audit_args(pre, post, out)[1:])
    assert code == 1
    assert "distinct" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_close_temperatures_get_distinct_report_dirs(corpus_files, tmp_path):
    pre, post = corpus_files
    out = tmp_path / "s"
    code = main(["sweep", "temperature", "--values", "0.1,0.1000001"] + _audit_args(pre, post, out)[1:])
    assert code == 0
    assert sorted(path.name for path in out.iterdir() if path.is_dir()) == [
        "temperature_0.1",
        "temperature_0.1000001",
    ]


@pytest.mark.parametrize("values", ["nan", "nan,nan", "0.1,inf", "0.1,-inf"])
def test_sweep_non_finite_temperature_exit_1(corpus_files, tmp_path, capsys, values):
    pre, post = corpus_files
    out = tmp_path / "s"
    assert main(["sweep", "temperature", "--values", values] + _audit_args(pre, post, out)[1:]) == 1
    assert "temperature must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_non_numeric_values_exit_1(corpus_files, tmp_path):
    pre, post = corpus_files
    code = main(["sweep", "shots", "--values", "four"] + _audit_args(pre, post, tmp_path / "s")[1:])
    assert code == 1


def test_match_command(tmp_path, capsys):
    ref = tmp_path / "ref.txt"
    gen = tmp_path / "gen.txt"
    ref.write_text("the cat sat on the mat", encoding="utf-8")
    gen.write_text("the cat on the mat", encoding="utf-8")
    assert main(["match", str(ref), str(gen), "--lmin", "1", "--lmax", "4"]) == 0
    out = capsys.readouterr().out
    assert "longest=3 matches=4" in out
    assert "3,3,2" in out  # "on the mat"
    assert "k,count" in out


_MATCH_REF = (
    "the quick brown fox jumps over the lazy dog and then the quick brown fox "
    "runs away from the lazy dog while the cat sleeps\n"
)
_MATCH_GEN = (
    "a quick brown fox jumps over the lazy dog but then the quick brown fox "
    "runs far away from the lazy dog while the cat sleeps soundly\n"
)
_MATCH_ROWS = (
    "longest=9 matches=20\n"
    "length,pos_ref,pos_gen\n"
    "1,0,6\n"
    "4,0,11\n"
    "1,0,19\n"
    "1,0,23\n"
    "8,1,1\n"
    "1,6,11\n"
    "3,6,19\n"
    "1,6,23\n"
    "6,10,10\n"
    "1,11,6\n"
    "1,11,19\n"
    "1,11,23\n"
    "3,12,1\n"
    "9,16,17\n"
    "3,18,6\n"
    "1,18,11\n"
    "1,18,23\n"
    "1,22,6\n"
    "1,22,11\n"
    "1,22,19\n"
    "\n"
)
_MATCH_COUNTS = {
    (): (
    "k,count\n"
    "5,3\n"
    "6,3\n"
    "7,2\n"
    "8,2\n"
    "9,1\n"
    "10,0\n"
    "11,0\n"
    "12,0\n"
    ),
    ("--exact-lengths",): (
    "k,count\n"
    "5,0\n"
    "6,1\n"
    "7,0\n"
    "8,1\n"
    "9,1\n"
    "10,0\n"
    "11,0\n"
    "12,0\n"
    ),
}


@pytest.mark.parametrize("extra", list(_MATCH_COUNTS), ids=["threshold", "exact-lengths"])
def test_match_output_is_byte_stable(tmp_path, capsys, extra):
    ref = tmp_path / "ref.txt"
    gen = tmp_path / "gen.txt"
    ref.write_text(_MATCH_REF, encoding="utf-8")
    gen.write_text(_MATCH_GEN, encoding="utf-8")
    assert main(["match", str(ref), str(gen), *extra]) == 0
    assert capsys.readouterr().out == _MATCH_ROWS + _MATCH_COUNTS[extra]


def test_match_skips_a_byte_order_mark(tmp_path, capsys):
    ref = tmp_path / "ref.txt"
    gen = tmp_path / "gen.txt"
    ref.write_bytes(b"\xef\xbb\xbf" + _MATCH_REF.encode("utf-8"))
    gen.write_bytes(b"\xef\xbb\xbf" + _MATCH_GEN.encode("utf-8"))
    assert main(["match", str(ref), str(gen)]) == 0
    assert capsys.readouterr().out == _MATCH_ROWS + _MATCH_COUNTS[()]


def test_match_missing_file_exit_2(tmp_path):
    existing = tmp_path / "a.txt"
    existing.write_text("x", encoding="utf-8")
    assert main(["match", str(existing), str(tmp_path / "missing.txt")]) == 2


def test_match_bad_bounds_exit_1(tmp_path):
    f = tmp_path / "a.txt"
    f.write_text("x", encoding="utf-8")
    assert main(["match", str(f), str(f), "--lmin", "9", "--lmax", "3"]) == 1


def test_match_accepts_a_single_threshold(tmp_path, capsys):
    # match makes no cohort comparison, so one length is a valid range.
    f = tmp_path / "a.txt"
    f.write_text("a b c d e f", encoding="utf-8")
    assert main(["match", str(f), str(f), "--lmin", "5", "--lmax", "5"]) == 0
    assert capsys.readouterr().out.endswith("k,count\n5,1\n")


def test_transcript_command(tmp_path, capsys):
    docs = make_corpus(n_pre=1, n_post=1, words=60)
    corpus = write_corpus_jsonl(tmp_path / "c.jsonl", docs)
    assert main(["transcript", "--corpus", str(corpus), "--doc", "pre-0", "--shots", "6"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("System: complete the paragraph")
    assert out.count("User: ") == 3
    assert out.count("Assistant: ") == 2
    assert "[held-out reference] " in out


def test_transcript_command_output_is_byte_stable(tmp_path, capsys):
    # Roles follow from a turn's position; pin the whole rendering, with
    # non-ASCII text and tab and newline whitespace inside the turns.
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(json.dumps({"id": "golden", "text": UNICODE_TEXT}, ensure_ascii=False) + "\n", encoding="utf-8")
    assert main(["transcript", "--corpus", str(corpus), "--doc", "golden", "--shots", "6"]) == 0
    assert capsys.readouterr().out == (
        "System: complete the paragraph\n"
        "User: Ça démarre\tici :\n"
        "Assistant: naïve café, «guillemets» et\n"
        "User: 東京\n\ncontinue  sans fin\n"
        "Assistant: — über straße\n"
        "User: ØRE 𝔘nicode\tligne\n"
        "[held-out reference] finale ĳ ok\n"
    )


def test_transcript_accepts_corpus_without_cohort_field(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    text = " ".join(f"w{i}" for i in range(60))
    corpus.write_text(json.dumps({"id": "solo", "text": text}) + "\n", encoding="utf-8")
    assert main(["transcript", "--corpus", str(corpus), "--doc", "solo", "--shots", "2"]) == 0
    assert "[held-out reference] " in capsys.readouterr().out


def test_transcript_unknown_doc_exit_2(tmp_path, capsys):
    corpus = write_corpus_jsonl(tmp_path / "c.jsonl", make_corpus(n_pre=1, n_post=1, words=60))
    assert main(["transcript", "--corpus", str(corpus), "--doc", "ghost"]) == 2
    assert "no document" in capsys.readouterr().err


def test_transcript_truncate_option(tmp_path, capsys):
    corpus = write_corpus_jsonl(tmp_path / "c.jsonl", make_corpus(n_pre=1, n_post=1, words=100))
    assert main(["transcript", "--corpus", str(corpus), "--doc", "pre-0", "--truncate", "12", "--shots", "2"]) == 0
    out = capsys.readouterr().out
    assert "p0w11" in out and "p0w12" not in out
