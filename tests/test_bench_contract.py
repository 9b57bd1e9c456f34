"""The benchmark's tracer wraps ``msr_audit.runner`` attributes by name.

``bench/tracing.py`` replaces each name in ``RUNNER_CALLS`` (and
``GenerationCache``) on the runner module with a span-recording wrapper, so a
refactor that renames one of them, or stops calling it through the runner
module, breaks ``bench/run.py --trace 1`` or silently empties a layer. These
tests load that file by path, without writing anything under ``bench/``, and
check the contract on a small traced length sweep. The benchmark's own tests
run here too, in a subprocess.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import msr_audit.runner as runner
from conftest import make_corpus
from msr_audit.gateway import ObliviousBackend, VerbatimBackend

REPO = Path(__file__).resolve().parent.parent
TRACING_PATH = REPO / "bench" / "tracing.py"

TRACED_LAYERS = (
    "corpus.tokenize",
    "corpus.trim",
    "prompting.transcript",
    "gateway.batch",
    "gateway.cache_lookup",
    "gateway.cache_store",
    "matching.kernel",
    "matching.frequency",
    "stats.compare",
    "runner.audit",
)


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_runner_has_every_traced_name(tracing):
    for name in [*tracing.RUNNER_CALLS, "GenerationCache"]:
        assert hasattr(runner, name), name


def test_traced_length_sweep_records_every_layer(tracing, small_config, tmp_path):
    corpus = make_corpus()
    backends = {"pre": VerbatimBackend(), "post": ObliviousBackend()}
    # The runner builds a cache, and so records cache spans, only with a file.
    config = replace(small_config, cache_path=str(tmp_path / "cache.jsonl"))
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, runner, backends.values())
    start = time.perf_counter()
    try:
        reports = runner.sweep_length(corpus, config, [60, 90, 120], backends)
    finally:
        undo()
    wall = time.perf_counter() - start

    assert sorted(reports) == [60, 90, 120]
    names = {span.name for span in tracer.spans}
    for layer in TRACED_LAYERS:
        assert layer in names, layer
    layers = tracing.layer_metrics(tracer.spans, 1, wall)
    assert layers["corpus.tokenize_calls"] == len(corpus)  # tokenized once per sweep
    assert layers["matching.kernel_calls"] == 3 * len(corpus)


def test_benchmark_self_tests_pass():
    # bench/tests cannot join testpaths: its conftest.py would shadow the one
    # that tests/ import from.
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "bench/tests"],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout[-4000:] + result.stderr[-2000:]
