"""The msr-audit benchmark.

Generates one workload's seeded corpus, times the program's set-up in
several fresh processes, runs the workload's audit repeatedly in one more
process for the given number of seconds, checks the outputs with code that
shares nothing with ``msr_audit.matching`` or ``msr_audit.runner``, and prints
one JSON line: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.

Run from the repository root:
    python3 bench/run.py --workload audit-longref --seed 1 --seconds 20 --trace 0

The program is imported from ``src/``; without it the benchmark exits with
code 2. It exits with code 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from check import Expected, Prepared, check_frequencies, check_summary, expected_for, prepare
from synth import Vocabulary, chunk_copy, copy_rng, write_corpus
from workloads import COPY_P, L_MAX, L_MIN, SETUP_SAMPLES, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TIMEOUT_S = 150
# Metric names and units are defined once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_worker(work: Path, args: argparse.Namespace, env: dict, *extra: str) -> dict:
    command = [
        sys.executable, str(BENCH / "worker.py"), "--work", str(work), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"worker exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def start_stub(work: Path, args: argparse.Namespace, params: dict) -> tuple[subprocess.Popen, str]:
    stub = subprocess.Popen(
        [
            sys.executable, str(BENCH / "stub.py"), "--seed", str(args.seed),
            "--pre", str(work / "pre.jsonl"), "--post", str(work / "post.jsonl"),
            "--delay", str(params["service_delay_s"]), "--every", str(params["http_429_every"]),
        ],
        stdout=subprocess.PIPE,
        text=True,
    )
    line = stub.stdout.readline()
    if not line.startswith("PORT "):
        stub.kill()
        stub.wait()
        raise RuntimeError(f"stub failed to start: {line!r}")
    return stub, f"http://127.0.0.1:{int(line.split()[1])}"


def expected_outputs(work: Path, args: argparse.Namespace, params: dict, vocab: Vocabulary):
    """Expected results for every document, per report directory."""
    docs = {}
    for cohort in ("pre", "post"):
        for line in (work / f"{cohort}.jsonl").read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            docs[record["id"]] = (cohort, record["text"])

    if params["backend"] == "live":
        from stub import Responder

        responder = Responder(args.seed, {c: work / f"{c}.jsonl" for c in ("pre", "post")})

        def complete(cohort: str, prep: Prepared) -> str:
            return responder.complete(list(prep.turns))
    else:

        def complete(cohort: str, prep: Prepared) -> str:
            rng = copy_rng(args.seed, prep.reference_text)
            return chunk_copy(prep.reference_tokens, COPY_P[cohort], rng, vocab)

    expected: dict[str, dict[str, Expected]] = {}
    for value in params.get("sweep", ["audit"]):
        truncate = value if isinstance(value, int) else None
        per_doc = {}
        for doc_id, (cohort, text) in docs.items():
            prep = prepare(text, params["shots"], truncate)
            per_doc[doc_id] = expected_for(prep, complete(cohort, prep), L_MIN, L_MAX)
        expected[str(value)] = per_doc
    return expected


def check_run(work: Path, result: dict, expected: dict) -> list[str]:
    problems = []
    first_csv: dict[str, bytes] = {}
    for audit in result["audits"]:
        for value, want in expected.items():
            report_dir = work / audit["dir"] / value
            summary = json.loads((report_dir / "summary.json").read_text(encoding="utf-8"))
            csv_bytes = (report_dir / "frequencies.csv").read_bytes()
            found = check_summary(summary, want) + check_frequencies(csv_bytes.decode(), summary, L_MIN, L_MAX)
            if first_csv.setdefault(value, csv_bytes) != csv_bytes:
                found.append("frequencies.csv differs from the first audit's")
            problems += [f"{audit['dir']}/{value}: {problem}" for problem in found]
    return problems


def docs_per_s(audits: list[dict]) -> float:
    return statistics.median(a["scored"] / a["wall_s"] for a in audits)


def main() -> int:
    parser = argparse.ArgumentParser(description="msr-audit benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "msr_audit" / "__init__.py").is_file():
        print(f"msr_audit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    params = WORKLOADS[args.workload]
    live = params["backend"] == "live"

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    stub = None
    try:
        vocab = Vocabulary(args.seed)
        write_corpus(work, args.seed, params, vocab)
        extra = []
        if live:
            stub, url = start_stub(work, args, params)
            extra = ["--url", url]
        setup = [] if args.trace else [
            run_worker(work, args, env, *extra, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES)
        ]
        result = run_worker(work, args, env, *extra)
        problems = check_run(work, result, expected_outputs(work, args, params, vocab))
    finally:
        if stub is not None:
            stub.terminate()
            stub.wait(timeout=10)
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    audits = result["audits"]
    attempted = len(audits) * 2 * params["docs_per_cohort"] * len(params.get("sweep", [None]))
    scored = sum(a["scored"] for a in audits)
    failed = min(attempted, attempted - scored + len(problems))
    if args.trace:
        metrics = result["layers"]
        traced_rate = docs_per_s([a for a in audits if a["traced"]])
        metrics["trace.overhead_share"] = 1 - traced_rate / docs_per_s([a for a in audits if not a["traced"]])
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "docs_per_s": docs_per_s(audits),
            "cpu_ms_per_doc": statistics.median(1e3 * a["cpu_s"] / a["scored"] for a in audits),
            "peak_rss_mb": result["peak_rss_mb"],
            "requests_per_doc": sum(a["requests"] for a in audits) / scored,
            "scored_share": 1 - failed / attempted,
        }
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if not problems and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
