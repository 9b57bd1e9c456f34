"""One measured process of the benchmark.

It times its own set-up (``import msr_audit``, ``load_corpus`` on the
workload's JSON lines, building the backends and the config), then, unless
``--setup-only`` is given, repeats the workload's audit plus ``emit_report``
until ``--seconds`` have passed. It prints one JSON line with the set-up time,
one record per audit and its peak resident set. With ``--trace 1`` every
second audit runs with spans installed and the per-layer numbers are added.

Run: python3 bench/worker.py --work DIR --workload NAME --seed N
         --seconds S --trace 0|1 [--url URL] [--setup-only]
DIR holds the pre.jsonl and post.jsonl written by bench/run.py; URL is the
live stub's.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import urllib.request
from dataclasses import replace
from pathlib import Path

from synth import Vocabulary
from tracing import Tracer, install, layer_metrics
from workloads import COPY_P, L_MAX, L_MIN, MAX_IN_FLIGHT, WORKLOADS


def stub_counts(url: str) -> dict:
    """POSTs and 429s the stub saw since the last call; resets its counters."""
    with urllib.request.urlopen(url + "/stats", timeout=10) as resp:
        return json.load(resp)


def main() -> None:
    parser = argparse.ArgumentParser(description="one measured benchmark process")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--url", help="base URL of the live stub")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    params = WORKLOADS[args.workload]
    live = params["backend"] == "live"
    vocab = None if live else Vocabulary(args.seed)
    tracer = Tracer() if args.trace else None

    start = time.perf_counter()
    import msr_audit
    from msr_audit import runner

    load = msr_audit.load_corpus if tracer is None else tracer.wrap("corpus.load", msr_audit.load_corpus)
    corpus = load(args.work / "pre.jsonl", cohort_override="pre") + load(
        args.work / "post.jsonl", cohort_override="post"
    )
    if live:
        shared = msr_audit.LiveBackend(args.url, timeout=30.0, backoff_base=params["backoff_base_s"])
        backends = {"pre": shared, "post": shared}
    else:
        from backend import ChunkCopyBackend

        backends = {cohort: ChunkCopyBackend(p, vocab) for cohort, p in COPY_P.items()}
    config = runner.ExperimentConfig(
        backend=params["backend"],
        shots=params["shots"],
        l_min=L_MIN,
        l_max=L_MAX,
        min_words=params["min_words"],
        max_in_flight=MAX_IN_FLIGHT,
        seed=args.seed,
    )
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return

    if live:
        stub_counts(args.url)
    audits = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(audits) % 2 == 1
        out = args.work / f"audit-{len(audits):03d}"
        run_config = replace(config, cache_path=str(out / "cache.jsonl")) if live else config
        calls_before = 0 if live else sum(b.calls for b in backends.values())
        undo = install(tracer, runner, backends.values()) if traced else None
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            if params["api"] == "sweep_length":
                reports = runner.sweep_length(corpus, run_config, params["sweep"], backends)
            else:
                reports = {"audit": runner.run_audit(corpus, run_config, backends)}
            for value, report in reports.items():
                runner.emit_report(report, out / str(value))
        finally:
            if undo is not None:
                undo()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        record = {
            "dir": out.name,
            "traced": traced,
            "wall_s": wall,
            "cpu_s": cpu,
            "scored": sum(r.n_docs_pre + r.n_docs_post for r in reports.values()),
        }
        if live:
            counts = stub_counts(args.url)
            record.update(requests=counts["posts"], http_429=counts["http_429"])
        else:
            record.update(requests=sum(b.calls for b in backends.values()) - calls_before, http_429=0)
        audits.append(record)
        if time.perf_counter() >= deadline and (tracer is None or len(audits) >= 2):
            break

    result = {
        "setup_s": setup_s,
        "audits": audits,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        traced_audits = [a for a in audits if a["traced"]]
        layers = layer_metrics(tracer.spans, len(traced_audits), sum(a["wall_s"] for a in traced_audits))
        requests = sum(a["requests"] for a in traced_audits)
        http_429 = sum(a["http_429"] for a in traced_audits)
        layers["gateway.requests"] = requests / len(traced_audits)
        layers["gateway.http_429"] = http_429 / len(traced_audits)
        layers["gateway.useful_ratio"] = (requests - http_429) / requests
        result["layers"] = layers
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
