"""End-to-end audit pipeline.

Takes a two-cohort corpus through tokenization, length filtering, optional
truncation, transcript construction, completion, matching, and the final
cohort comparison. Also provides parameter sweeps (shot count, temperature,
truncation length) and report emission. Match counts, per document and per
cohort, are plain tuples with one entry per threshold k from the config's
``l_min`` to its ``resolved_l_max``.
"""

from __future__ import annotations

import json
import logging
import urllib.parse
from collections import Counter
from contextlib import ExitStack, closing, contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Collection, Iterable, Iterator, Mapping, Sequence

from msr_audit.corpus import (
    COHORTS,
    CorpusError,
    Document,
    TokenizedDocument,
    filter_by_length,
    tokenize_document,
    truncate,
    words,
)
from msr_audit.gateway import (
    Backend,
    BackendError,
    GenerationCache,
    GenerationParams,
    backend_from_spec,
    generate_batch,
    utc_timestamp,
)
from msr_audit.matching import (
    frequency_array,
    longest_match_below,
    maximal_common_substrings,
    sum_arrays,
)
from msr_audit.prompting import (
    DEFAULT_SYSTEM_PROMPT,
    GeneratedCompletion,
    Transcript,
    build_transcript,
    segment,
)
from msr_audit.stats import CohortComparison, compare_cohorts, compare_samples

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything an audit run needs besides the corpus itself; checked when built.

    ``truncate_words`` caps every document at a fixed token count so cohorts
    are length-matched; it also caps the tracked match length at
    ``truncate_words // shots``, the longest reference a segment can hold.
    ``lowercase`` folds the reference and completion before matching; the
    request carries the text as written.
    """

    backend: str = "verbatim"
    model: str = GenerationParams.model
    shots: int = 6
    l_min: int = 5
    l_max: int = 12
    temperature: float = GenerationParams.temperature
    min_words: int = 1000
    truncate_words: int | None = None
    max_in_flight: int = 4
    cache_path: str | None = None
    seed: int = GenerationParams.seed
    system_prompt: str = DEFAULT_SYSTEM_PROMPT
    lowercase: bool = False
    exact_lengths: bool = False
    max_tokens: int | None = GenerationParams.max_tokens
    base_url: str | None = None

    @property
    def resolved_l_max(self) -> int:
        """Effective upper match-length bound after applying truncation."""
        if self.truncate_words is not None:
            return min(self.l_max, self.truncate_words // self.shots)
        return self.l_max

    @property
    def params(self) -> GenerationParams:
        """The request parameters every generation of this config sends."""
        return GenerationParams(
            model=self.model, temperature=self.temperature, max_tokens=self.max_tokens, seed=self.seed
        )

    def __post_init__(self) -> None:
        if self.shots < 2 or self.shots % 2:
            raise ValueError(f"shots must be an even number >= 2, got {self.shots}")
        if self.l_min < 1:
            raise ValueError(f"l_min must be >= 1, got {self.l_min}")
        if self.min_words < 0:
            raise ValueError(f"min_words must be >= 0, got {self.min_words}")
        if self.max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {self.max_in_flight}")
        # GenerationParams checks these two fields when it is built.
        GenerationParams(temperature=self.temperature, max_tokens=self.max_tokens)
        if self.truncate_words is not None and self.truncate_words < self.shots:
            raise ValueError(
                f"truncation to {self.truncate_words} words cannot fill {self.shots} segments"
            )
        resolved = self.resolved_l_max
        if resolved <= self.l_min:
            raise ValueError(
                f"resolved l_max {resolved} is not above l_min {self.l_min}, but the cohort "
                "comparison needs at least two thresholds; raise l_max or the truncation length, or lower l_min"
            )


@dataclass(frozen=True)
class DocumentMatchSummary:
    """Matching outcome for one document: ``counts`` has one entry per
    threshold k from the config's ``l_min`` to its ``resolved_l_max``."""

    doc_id: str
    cohort: str
    longest_match: int
    counts: tuple[int, ...]


@dataclass(frozen=True)
class AuditReport:
    """One audit's result. ``backends`` names the backend each cohort ran on;
    ``f_pre``/``f_post`` are each cohort's summed per-document counts."""

    config: ExperimentConfig
    backends: dict[str, str]
    created_at: str
    f_pre: tuple[int, ...]
    f_post: tuple[int, ...]
    comparison: CohortComparison
    documents: tuple[DocumentMatchSummary, ...]
    failures: int
    n_docs_pre: int
    n_docs_post: int


@contextmanager
def _cohort_backends(
    config: ExperimentConfig,
    backends: Backend | str | Mapping[str, Backend | str] | None,
) -> Iterator[dict[str, Backend]]:
    """Map each cohort to its backend: ``backends`` is one backend or spec
    string for both cohorts, or a mapping with one per cohort; None means
    ``config.backend`` for both.
    Each distinct spec is built once and closed on exit, also on error; the
    caller's backends stay open."""
    if not isinstance(backends, Mapping):
        backends = dict.fromkeys(COHORTS, config.backend if backends is None else backends)
    missing = [cohort for cohort in COHORTS if cohort not in backends]
    if missing:
        raise ValueError(f"backends mapping is missing cohorts: {missing}")
    chosen = [backends[cohort] for cohort in COHORTS]
    with ExitStack() as stack:
        built = {
            spec: stack.enter_context(closing(backend_from_spec(spec, base_url=config.base_url)))
            for spec in dict.fromkeys(spec for spec in chosen if isinstance(spec, str))
        }
        yield {cohort: built[spec] if isinstance(spec, str) else spec for cohort, spec in zip(COHORTS, chosen)}


def _word_limit(configs: Collection[ExperimentConfig]) -> int | None:
    """The most words any of ``configs`` reads of a document: its largest
    truncation, and always past ``min_words`` so the length filter decides
    as on the whole text. None when one of them reads every word."""
    if any(config.truncate_words is None for config in configs):
        return None
    return max(max(config.truncate_words, config.min_words + 1) for config in configs)


# One cohort's documents, each with its segments' [start, end) token ranges.
_Segmented = list[tuple[TokenizedDocument, tuple[tuple[int, int], ...]]]


def _segment(eligible: Sequence[TokenizedDocument], config: ExperimentConfig) -> dict[str, _Segmented]:
    """Truncate and segment each document into its cohort; one too short is
    logged and left out, and a cohort left empty raises ``CorpusError``."""
    cohorts: dict[str, _Segmented] = {cohort: [] for cohort in COHORTS}
    for doc in eligible:
        if config.truncate_words is not None:
            doc = truncate(doc, config.truncate_words)
        try:
            cohorts[doc.cohort].append((doc, segment(doc, config.shots)))
        except ValueError as exc:
            logger.warning("skipping document %r: %s", doc.id, exc)
    for cohort, segmented in cohorts.items():
        if not segmented:
            raise CorpusError(f"cohort {cohort!r} is empty after filtering")
    return cohorts


def _score(
    doc: TokenizedDocument, transcript: Transcript, output: str | BackendError, config: ExperimentConfig
) -> DocumentMatchSummary | None:
    """Match one document's completion against its reference; None (logged)
    when its generation failed."""
    if isinstance(output, BackendError):
        logger.warning("generation failed for document %r: %s", doc.id, output)
        return None
    reference = words(transcript.reference_text, lowercase=True) if config.lowercase else transcript.reference_tokens
    completion = GeneratedCompletion.from_text(output, lowercase=config.lowercase)
    if not completion.tokens:
        logger.warning("empty completion for document %r; will count as zero-match", doc.id)
    lengths = maximal_common_substrings(reference, completion.tokens, config.l_min)[:, 0]
    counts = frequency_array(lengths, config.l_min, config.resolved_l_max, exact=config.exact_lengths)
    # The kernel skips runs shorter than l_min; when it found none, the
    # longest match is one of those.
    longest = int(lengths.max()) if len(lengths) else longest_match_below(reference, completion.tokens, config.l_min)
    return DocumentMatchSummary(doc_id=doc.id, cohort=doc.cohort, longest_match=longest, counts=counts)


def _audit(
    eligible: Sequence[TokenizedDocument],
    cohorts: Mapping[str, _Segmented],
    config: ExperimentConfig,
    backend_map: Mapping[str, Backend],
    cache: GenerationCache | None,
) -> AuditReport:
    """The request phase of one config: per cohort of ``_segment``'s output,
    build the transcripts, complete them in one batch and score them; then
    compare the cohorts. One cohort's transcripts are alive at a time."""
    # Ids are unique (_run rejects repeats), so they restore corpus order.
    scored: dict[str, DocumentMatchSummary] = {}
    totals: dict[str, tuple[int, ...]] = {}
    sizes: dict[str, int] = {}
    for cohort, segmented in cohorts.items():
        transcripts = [build_transcript(doc, bounds, system_prompt=config.system_prompt) for doc, bounds in segmented]
        outputs = generate_batch(
            backend_map[cohort], transcripts, config.params, max_in_flight=config.max_in_flight, cache=cache
        )
        # A comprehension, so no loop variable keeps a transcript bound.
        summaries = [
            summary
            for (doc, _), transcript, output in zip(segmented, transcripts, outputs)
            if (summary := _score(doc, transcript, output, config)) is not None
        ]
        del transcripts, outputs
        if not summaries:
            # Documents were segmented but every generation failed, so this
            # is the backend's fault rather than the corpus's.
            raise BackendError(f"empty cohort results for {cohort!r}: all {len(segmented)} generations failed")
        totals[cohort] = sum_arrays([summary.counts for summary in summaries])
        sizes[cohort] = len(summaries)
        scored.update((summary.doc_id, summary) for summary in summaries)

    documents = tuple(scored[doc.id] for doc in eligible if doc.id in scored)
    return AuditReport(
        config=config,
        backends={cohort: backend_map[cohort].name for cohort in COHORTS},
        created_at=utc_timestamp(),
        f_pre=totals["pre"],
        f_post=totals["post"],
        comparison=compare_cohorts(totals["pre"], totals["post"]),
        documents=documents,
        # Every eligible document is either scored or failed (segmentation
        # or generation).
        failures=len(eligible) - len(documents),
        n_docs_pre=sizes["pre"],
        n_docs_post=sizes["post"],
    )


def _run(
    corpus: Sequence[Document],
    configs: Sequence[ExperimentConfig],
    backends: Backend | str | Mapping[str, Backend | str] | None,
    out_dirs: Sequence[str | Path | None],
) -> list[AuditReport]:
    """Audit ``corpus`` once per config, in order, after one shared set-up.

    Set-up ends before the first request. Repeated ids fail before any
    backend is built; the corpus is tokenized and length-filtered once; each
    config's cohorts are truncated and segmented (an emptied one fails);
    then the cache is opened and each ``out_dirs`` entry (None: no report)
    created. Each config's report is written there once it is scored, before
    the next config's requests. The configs differ in one field, so the
    first one's backend, ``min_words`` and ``cache_path`` serve them all.
    """
    repeated = sorted(doc_id for doc_id, count in Counter(doc.id for doc in corpus).items() if count > 1)
    if repeated:
        raise CorpusError(f"document ids must be unique across both cohorts; repeated: {repeated[:5]}")
    first = configs[0]
    with _cohort_backends(first, backends) as backend_map:
        limit = _word_limit(configs)
        eligible = filter_by_length([tokenize_document(doc, limit=limit) for doc in corpus], first.min_words)
        segmented = [_segment(eligible, config) for config in configs]
        cache = GenerationCache(first.cache_path) if first.cache_path is not None else None
        for out_dir in out_dirs:
            if out_dir is not None:
                Path(out_dir).mkdir(parents=True, exist_ok=True)
        reports = []
        for cohorts, config, out_dir in zip(segmented, configs, out_dirs, strict=True):
            reports.append(_audit(eligible, cohorts, config, backend_map, cache))
            if out_dir is not None:
                emit_report(reports[-1], out_dir)
        return reports


def run_audit(
    corpus: Sequence[Document],
    config: ExperimentConfig,
    backends: Backend | str | Mapping[str, Backend | str] | None = None,
    out: str | Path | None = None,
) -> AuditReport:
    """Run the full audit and compare the pre and post cohorts.

    Per-document failures (too short to segment, generation errors) are
    counted and skipped; an entire cohort coming up empty is an error.
    With ``out``, the directory is created once set-up is done (the
    backends and cache built, every document tokenized and segmented),
    before the first request, and the report is written there.
    """
    return _run(corpus, [config], backends, [out])[0]


# Sweep dimension (the CLI's word) -> the ExperimentConfig field it varies.
SWEEP_FIELDS = {"shots": "shots", "temperature": "temperature", "length": "truncate_words"}


def value_dir(out: str | Path, dimension: str, value: int | float) -> Path:
    """A sweep value's report directory; str() round-trips, so distinct values never share one."""
    return Path(out) / f"{dimension}_{value}"


def sweep(
    corpus: Sequence[Document],
    config: ExperimentConfig,
    dimension: str,
    values: Iterable[int | float],
    backends: Backend | str | Mapping[str, Backend | str] | None = None,
    out: str | Path | None = None,
) -> dict[int | float, AuditReport]:
    """Re-run the audit at each value of one config field.

    ``dimension`` is ``"shots"``, ``"temperature"`` or ``"length"`` (the
    truncation length). Values must be distinct, and every value's config
    is checked and its cohorts segmented before any request, so a bad value
    cannot waste earlier runs. The corpus is tokenized, and the backends and
    the completion cache (only with ``config.cache_path``) are built, once
    for the whole sweep. With ``out``, each value's report is written to its
    ``value_dir``, made before the first request, as soon as it is scored.
    """
    if dimension not in SWEEP_FIELDS:
        raise ValueError(f"unknown sweep dimension {dimension!r}; expected one of {sorted(SWEEP_FIELDS)}")
    values = list(values)
    if not values:
        raise ValueError(f"{dimension} sweep needs at least one value")
    if len(set(values)) != len(values):
        raise ValueError(f"{dimension} sweep values must be distinct, got {values}")
    # replace() checks each value's config, so a bad value raises here.
    configs = [replace(config, **{SWEEP_FIELDS[dimension]: value}) for value in values]
    out_dirs = [None if out is None else value_dir(out, dimension, value) for value in values]
    return dict(zip(values, _run(corpus, configs, backends, out_dirs)))


def sweep_length(
    corpus: Sequence[Document],
    config: ExperimentConfig,
    lengths: Iterable[int],
    backends: Backend | str | Mapping[str, Backend | str] | None = None,
) -> dict[int, AuditReport]:
    """Re-run the audit with every document truncated to each length."""
    return sweep(corpus, config, "length", lengths, backends=backends)


def low_vs_high(reports: Mapping[float, AuditReport]) -> CohortComparison | None:
    """Contrast of a two-temperature sweep's both-cohort totals (positive
    delta: the cooler run matches more); None unless exactly two
    temperatures were swept."""
    if len(reports) != 2:
        return None
    low, high = (sum_arrays([reports[t].f_pre, reports[t].f_post]) for t in sorted(reports))
    return compare_samples(low, high)


def report_to_dict(report: AuditReport) -> dict:
    """JSON-ready view of a report; each cohort's counts carry the config's
    thresholds."""

    def array_dict(counts: tuple[int, ...]) -> dict:
        return {"l_min": report.config.l_min, "l_max": report.config.resolved_l_max, "counts": list(counts)}

    config = asdict(report.config)
    if config["base_url"] is not None:  # record the endpoint: the query or userinfo may hold a secret
        parts = urllib.parse.urlsplit(config["base_url"])
        config["base_url"] = urllib.parse.urlunsplit((parts.scheme, parts.netloc.rpartition("@")[2], parts.path, "", ""))
    return {
        "created_at": report.created_at,
        "config": config,
        "backends": report.backends,
        "failures": report.failures,
        "documents_pre": report.n_docs_pre,
        "documents_post": report.n_docs_post,
        "f_pre": array_dict(report.f_pre),
        "f_post": array_dict(report.f_post),
        "comparison": asdict(report.comparison),
        "documents": [asdict(summary) for summary in report.documents],
    }


def report_paths(out_dir: str | Path) -> dict[str, Path]:
    """Where ``emit_report`` writes a report under ``out_dir``."""
    out = Path(out_dir)
    return {"summary": out / "summary.json", "frequencies": out / "frequencies.csv"}


def emit_report(report: AuditReport, out_dir: str | Path) -> dict[str, Path]:
    """Write the ``report_paths`` files: summary.json and frequencies.csv.

    frequencies.csv carries no timestamp, so reruns of a deterministic
    configuration produce byte-identical files. Refuses to write anything
    when either cohort is empty.
    """
    if report.n_docs_pre < 1 or report.n_docs_post < 1:
        raise CorpusError("refusing to write a report with an empty cohort")
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    paths = report_paths(out_dir)
    paths["summary"].write_text(
        json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    lines = ["k,count_pre,count_post"]
    thresholds = range(report.config.l_min, report.config.resolved_l_max + 1)
    for k, pre, post in zip(thresholds, report.f_pre, report.f_post, strict=True):
        lines.append(f"{k},{pre},{post}")
    paths["frequencies"].write_text("\n".join(lines) + "\n", encoding="utf-8")
    return paths
