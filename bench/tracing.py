"""Spans around the calls into each ``msr_audit`` module, recorded from the
benchmark's own files.

``install`` replaces the names that ``msr_audit.runner`` calls (and the
backends' ``complete`` and the cache's ``lookup``/``store``) with wrappers
that record a span per call; the returned function puts the originals back.
Spans stay in memory; ``layer_metrics`` turns them into per-layer numbers.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from dataclasses import dataclass
from typing import Callable

# Name in msr_audit.runner -> span name "<layer>.<what>". A name the runner
# no longer has raises AttributeError, so a refactor cannot silently zero a
# layer's metrics.
RUNNER_CALLS = {
    "tokenize_document": "corpus.tokenize",
    "filter_by_length": "corpus.trim",
    "truncate": "corpus.trim",
    "segment": "prompting.transcript",
    "build_transcript": "prompting.transcript",
    "generate_batch": "gateway.batch",
    "maximal_common_substrings": "matching.kernel",
    "frequency_array": "matching.frequency",
    "sum_arrays": "matching.frequency",
    "compare_cohorts": "stats.compare",
    "compare_samples": "stats.compare",
    "run_audit": "runner.audit",
    "sweep_length": "runner.audit",
    "emit_report": "runner.emit",
}

# Counts recorded on a span, from the call's arguments and result.
MEASURES = {
    "tokenize_document": lambda args, doc: {"tokens": len(doc.tokens)},
    "maximal_common_substrings": lambda args, matches: {
        "cells": len(args[0]) * len(args[1]),
        "matches": len(matches),
    },
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    info: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; a span opened on a thread with no open span is parented
    to the open ``adopt`` span (the enclosing ``generate_batch``)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._adopter: int | None = None

    def wrap(
        self,
        name: str,
        fn: Callable,
        measure: Callable[[tuple, object], dict] | None = None,
        adopt: bool = False,
    ) -> Callable:
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else self._adopter
            span_id = next(self._ids)
            stack.append(span_id)
            if adopt:
                outer, self._adopter = self._adopter, span_id
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if adopt:
                    self._adopter = outer
            info = measure(args, result) if measure else None
            self.spans.append(Span(span_id, name, start, end, parent, threading.get_ident(), info))
            return result

        return traced


def install(tracer: Tracer, runner, backends) -> Callable[[], None]:
    """Wrap the runner's callees, the backends and the caches; return undo."""
    from msr_audit.prompting import GeneratedCompletion

    saved = {attr: getattr(runner, attr) for attr in [*RUNNER_CALLS, "GenerationCache"]}
    for attr, span_name in RUNNER_CALLS.items():
        wrapped = tracer.wrap(span_name, saved[attr], MEASURES.get(attr), adopt=attr == "generate_batch")
        setattr(runner, attr, wrapped)

    def traced_cache(*args, **kwargs):
        cache = saved["GenerationCache"](*args, **kwargs)
        cache.lookup = tracer.wrap("gateway.cache_lookup", cache.lookup, lambda args, hit: {"hit": hit is not None})
        cache.store = tracer.wrap("gateway.cache_store", cache.store)
        return cache

    runner.GenerationCache = traced_cache

    from_text = GeneratedCompletion.__dict__["from_text"]
    GeneratedCompletion.from_text = classmethod(
        tracer.wrap("prompting.completion_tokenize", from_text.__func__)
    )
    unique_backends = {id(b): b for b in backends}.values()
    for backend in unique_backends:
        backend.complete = tracer.wrap("gateway.request", backend.complete)

    def undo() -> None:
        for attr, original in saved.items():
            setattr(runner, attr, original)
        GeneratedCompletion.from_text = from_text
        for backend in unique_backends:
            del backend.complete

    return undo


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    reach = -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = {}
    for span in spans:
        clipped = [(max(s, span.start), min(e, span.end)) for s, e in children.get(span.id, ())]
        result[span.id] = span.duration - _union([c for c in clipped if c[1] > c[0]])
    return result


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans: list[Span], audits: int, audit_wall: float) -> dict[str, float]:
    """Per-layer totals per traced audit, plus latency percentiles and ratios.

    ``audits`` is the number of traced audit iterations and ``audit_wall``
    their summed wall time.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def self_s(name: str) -> float:
        return sum(own[s.id] for s in by_name.get(name, ())) / audits

    def wall_s(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, ())) / audits

    def info_sum(name: str, key: str) -> float:
        return sum(s.info[key] for s in by_name.get(name, ()))

    requests = by_name.get("gateway.request", [])
    latencies_ms = [s.duration * 1e3 for s in requests]
    lookups = by_name.get("gateway.cache_lookup", [])
    hits = sum(1 for s in lookups if s.info["hit"])
    kernel_s = self_s("matching.kernel")
    cells = info_sum("matching.kernel", "cells")
    batch_wall = wall_s("gateway.batch")
    return {
        "corpus.load_s": sum(s.duration for s in by_name.get("corpus.load", ())),
        "corpus.tokenize_s": self_s("corpus.tokenize"),
        "corpus.tokenize_calls": len(by_name.get("corpus.tokenize", ())) / audits,
        "corpus.tokens": info_sum("corpus.tokenize", "tokens") / audits,
        "corpus.trim_s": self_s("corpus.trim"),
        "prompting.transcript_s": self_s("prompting.transcript"),
        "prompting.completion_tokenize_s": self_s("prompting.completion_tokenize"),
        "gateway.batch_s": batch_wall,
        "gateway.batch_self_s": self_s("gateway.batch"),
        "gateway.request_s": wall_s("gateway.request"),
        "gateway.request_p50_ms": _percentile(latencies_ms, 0.50),
        "gateway.request_p99_ms": _percentile(latencies_ms, 0.99),
        "gateway.request_samples": len(latencies_ms),
        "gateway.in_flight_mean": wall_s("gateway.request") / batch_wall if batch_wall else 0.0,
        "gateway.wait_share": _union([(s.start, s.end) for s in requests]) / audit_wall,
        "gateway.cache_lookup_s": self_s("gateway.cache_lookup"),
        "gateway.cache_store_s": self_s("gateway.cache_store"),
        "gateway.cache_hits": hits / audits,
        "gateway.cache_misses": (len(lookups) - hits) / audits,
        "matching.kernel_s": kernel_s,
        "matching.kernel_calls": len(by_name.get("matching.kernel", ())) / audits,
        "matching.cells": cells / audits,
        "matching.matches": info_sum("matching.kernel", "matches") / audits,
        "matching.ns_per_cell": kernel_s * audits * 1e9 / cells if cells else 0.0,
        "matching.frequency_s": self_s("matching.frequency"),
        "stats.compare_s": self_s("stats.compare"),
        "runner.self_s": self_s("runner.audit"),
        "runner.emit_s": self_s("runner.emit"),
    }
