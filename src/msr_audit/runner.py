"""End-to-end audit pipeline.

Takes a two-cohort corpus through tokenization, length filtering, optional
truncation, transcript construction, completion, matching, and the final
cohort comparison. Also provides parameter sweeps (shot count, temperature,
truncation length) and report emission.
"""

from __future__ import annotations

import json
import logging
from contextlib import ExitStack, closing, contextmanager
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
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
)
from msr_audit.gateway import (
    Backend,
    BackendError,
    GenerationCache,
    GenerationParams,
    backend_from_spec,
    generate_batch,
)
from msr_audit.matching import (
    FrequencyArray,
    frequency_array,
    longest_match_below,
    maximal_common_substrings,
    sum_arrays,
)
from msr_audit.prompting import (
    DEFAULT_SYSTEM_PROMPT,
    GeneratedCompletion,
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
    model: str = "mock"
    shots: int = 6
    l_min: int = 5
    l_max: int = 12
    temperature: float = 0.1
    min_words: int = 1000
    truncate_words: int | None = None
    max_in_flight: int = 4
    cache_path: str | None = None
    seed: int = 0
    system_prompt: str = DEFAULT_SYSTEM_PROMPT
    lowercase: bool = False
    exact_lengths: bool = False
    max_tokens: int | None = None
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
    """Matching outcome for one document."""

    doc_id: str
    cohort: str
    longest_match: int
    counts: FrequencyArray


@dataclass(frozen=True)
class AuditReport:
    """One audit's result. ``backends`` names the backend each cohort ran on."""

    config: ExperimentConfig
    backends: dict[str, str]
    created_at: str
    f_pre: FrequencyArray
    f_post: FrequencyArray
    comparison: CohortComparison
    documents: tuple[DocumentMatchSummary, ...]
    failures: int
    n_docs_pre: int
    n_docs_post: int


def _utcnow() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@contextmanager
def _cohort_backends(
    config: ExperimentConfig,
    backends: Backend | Mapping[str, Backend | str] | None,
) -> Iterator[dict[str, Backend]]:
    """Map each cohort to its backend: ``backends`` is one backend, or a
    backend or spec string per cohort; None means ``config.backend`` for both.
    Each distinct spec is built once and closed on exit, also on error; the
    caller's backends stay open."""
    if backends is None or isinstance(backends, Backend):
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


def _eligible(
    corpus: Sequence[Document], config: ExperimentConfig, limit: int | None
) -> list[TokenizedDocument]:
    """Tokenize every document up to ``limit`` words and drop those at or
    below ``min_words``."""
    tokenized = [tokenize_document(doc, limit=limit) for doc in corpus]
    return filter_by_length(tokenized, config.min_words)


def _cache(config: ExperimentConfig) -> GenerationCache | None:
    """The run's completion cache: one per ``config.cache_path``, none without."""
    return GenerationCache(config.cache_path) if config.cache_path is not None else None


def _score_cohort(
    segmented: Sequence[tuple[TokenizedDocument, tuple[tuple[int, int], ...]]],
    config: ExperimentConfig,
    backend: Backend,
    cache: GenerationCache | None,
) -> list[DocumentMatchSummary | None]:
    """Build one cohort's transcripts, complete them in one batch and score
    each record; None for a document whose generation failed. The
    transcripts and records are released on return, so an audit holds one
    cohort's at a time."""
    transcripts = [
        build_transcript(doc, bounds, system_prompt=config.system_prompt) for doc, bounds in segmented
    ]
    records = generate_batch(
        backend, transcripts, config.params, max_in_flight=config.max_in_flight, cache=cache
    )
    summaries: list[DocumentMatchSummary | None] = []
    for (doc, _), transcript, record in zip(segmented, transcripts, records):
        if record.error is not None:
            logger.warning("generation failed for document %r: %s", doc.id, record.error)
            summaries.append(None)
            continue
        if not record.output_text:
            logger.warning("empty completion for document %r; will count as zero-match", doc.id)
        text, reference = record.output_text, transcript.reference_tokens
        if config.lowercase:
            text, reference = text.lower(), tuple(token.lower() for token in reference)
        completion = GeneratedCompletion.from_text(text)
        matches = maximal_common_substrings(reference, completion.tokens, config.l_min)
        lengths = matches[:, 0]
        counts = frequency_array(
            lengths, config.l_min, config.resolved_l_max, exact=config.exact_lengths
        )
        # The kernel skips runs shorter than l_min; when it found none, the
        # longest match is one of those.
        if len(lengths):
            longest = int(lengths.max())
        else:
            longest = longest_match_below(reference, completion.tokens, config.l_min)
        summaries.append(
            DocumentMatchSummary(doc_id=doc.id, cohort=doc.cohort, longest_match=longest, counts=counts)
        )
    return summaries


def _audit(
    eligible: Sequence[TokenizedDocument],
    config: ExperimentConfig,
    backend_map: Mapping[str, Backend],
    cache: GenerationCache | None,
) -> AuditReport:
    """Truncate and segment already-tokenized documents, then per cohort
    build transcripts, generate and score, and compare the cohorts."""
    if config.truncate_words is not None:
        eligible = [truncate(doc, config.truncate_words) for doc in eligible]

    # Segment every document before any request, so a cohort that
    # segmentation empties sends none.
    segmented: list[tuple[TokenizedDocument, tuple[tuple[int, int], ...]]] = []
    for doc in eligible:
        try:
            segmented.append((doc, segment(doc, config.shots)))
        except ValueError as exc:
            logger.warning("skipping document %r: %s", doc.id, exc)

    for cohort in COHORTS:
        if not any(doc.cohort == cohort for doc, _ in segmented):
            raise CorpusError(f"cohort {cohort!r} is empty after filtering")

    # Each summary goes to its document's corpus-order slot.
    scored: list[DocumentMatchSummary | None] = [None] * len(segmented)
    for cohort in COHORTS:
        slots = [i for i, (doc, _) in enumerate(segmented) if doc.cohort == cohort]
        summaries = _score_cohort(
            [segmented[i] for i in slots], config, backend_map[cohort], cache
        )
        if all(summary is None for summary in summaries):
            # Documents were segmented but every generation failed, so this
            # is the backend's fault rather than the corpus's.
            raise BackendError(f"empty cohort results for {cohort!r}: all {len(slots)} generations failed")
        for i, summary in zip(slots, summaries):
            scored[i] = summary

    documents = tuple(summary for summary in scored if summary is not None)
    f_pre, f_post = (
        sum_arrays([summary.counts for summary in documents if summary.cohort == cohort])
        for cohort in COHORTS
    )
    n_docs_pre = sum(summary.cohort == "pre" for summary in documents)
    return AuditReport(
        config=config,
        backends={cohort: backend_map[cohort].name for cohort in COHORTS},
        created_at=_utcnow(),
        f_pre=f_pre,
        f_post=f_post,
        comparison=compare_cohorts(f_pre, f_post),
        documents=documents,
        # Every eligible document is either scored or failed (segmentation
        # or generation).
        failures=len(eligible) - len(documents),
        n_docs_pre=n_docs_pre,
        n_docs_post=len(documents) - n_docs_pre,
    )


def run_audit(
    corpus: Sequence[Document],
    config: ExperimentConfig,
    backends: Backend | Mapping[str, Backend | str] | None = None,
) -> AuditReport:
    """Run the full audit and compare the pre and post cohorts.

    Per-document failures (too short to segment, generation errors) are
    counted and skipped; an entire cohort coming up empty is an error.
    """
    with _cohort_backends(config, backends) as backend_map:
        eligible = _eligible(corpus, config, _word_limit([config]))
        return _audit(eligible, config, backend_map, _cache(config))


# Sweep dimension (the CLI's word) -> the ExperimentConfig field it varies.
SWEEP_FIELDS = {"shots": "shots", "temperature": "temperature", "length": "truncate_words"}


def sweep(
    corpus: Sequence[Document],
    config: ExperimentConfig,
    dimension: str,
    values: Iterable[int | float],
    backends: Backend | Mapping[str, Backend | str] | None = None,
) -> dict[int | float, AuditReport]:
    """Re-run the audit at each value of one config field.

    ``dimension`` is ``"shots"``, ``"temperature"`` or ``"length"`` (the
    truncation length). Values must be distinct, and all of them are validated
    before any request is sent, so a bad value cannot waste earlier runs. The
    corpus is tokenized, and the backends and the completion cache (only with
    ``config.cache_path``) are built, once for the whole sweep.
    """
    if dimension not in SWEEP_FIELDS:
        raise ValueError(f"unknown sweep dimension {dimension!r}; expected one of {sorted(SWEEP_FIELDS)}")
    values = list(values)
    if not values:
        raise ValueError(f"{dimension} sweep needs at least one value")
    if len(set(values)) != len(values):
        raise ValueError(f"{dimension} sweep values must be distinct, got {values}")
    # replace() checks each value's config, so a bad value raises here.
    configs = {value: replace(config, **{SWEEP_FIELDS[dimension]: value}) for value in values}
    with _cohort_backends(config, backends) as backend_map:
        eligible = _eligible(corpus, config, _word_limit(configs.values()))
        cache = _cache(config)
        return {value: _audit(eligible, configs[value], backend_map, cache) for value in values}


def sweep_length(
    corpus: Sequence[Document],
    config: ExperimentConfig,
    lengths: Iterable[int],
    backends: Backend | Mapping[str, Backend | str] | None = None,
) -> dict[int, AuditReport]:
    """Re-run the audit with every document truncated to each length."""
    return sweep(corpus, config, "length", lengths, backends=backends)


def _total_counts(report: AuditReport) -> tuple[int, ...]:
    return sum_arrays([report.f_pre, report.f_post]).counts


def low_vs_high(reports: Mapping[float, AuditReport]) -> CohortComparison | None:
    """Contrast of a two-temperature sweep (positive delta: the cooler run
    matches more); None unless exactly two temperatures were swept."""
    if len(reports) != 2:
        return None
    low, high = sorted(reports)
    return compare_samples(_total_counts(reports[low]), _total_counts(reports[high]))


def report_to_dict(report: AuditReport) -> dict:
    """JSON-ready view of a report."""

    def array_dict(array: FrequencyArray) -> dict:
        return {"l_min": array.l_min, "l_max": array.l_max, "counts": list(array.counts)}

    return {
        "created_at": report.created_at,
        "config": asdict(report.config),
        "backends": report.backends,
        "failures": report.failures,
        "documents_pre": report.n_docs_pre,
        "documents_post": report.n_docs_post,
        "f_pre": array_dict(report.f_pre),
        "f_post": array_dict(report.f_post),
        "comparison": asdict(report.comparison),
        "documents": [
            {
                "doc_id": summary.doc_id,
                "cohort": summary.cohort,
                "longest_match": summary.longest_match,
                "counts": list(summary.counts.counts),
            }
            for summary in report.documents
        ],
    }


def emit_report(report: AuditReport, out_dir: str | Path) -> dict[str, Path]:
    """Write summary.json and frequencies.csv under ``out_dir``.

    frequencies.csv carries no timestamp, so reruns of a deterministic
    configuration produce byte-identical files. Refuses to write anything
    when either cohort is empty.
    """
    if report.n_docs_pre < 1 or report.n_docs_post < 1:
        raise CorpusError("refusing to write a report with an empty cohort")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    summary_path = out / "summary.json"
    summary_path.write_text(
        json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

    lines = ["k,count_pre,count_post"]
    for offset, k in enumerate(range(report.f_pre.l_min, report.f_pre.l_max + 1)):
        lines.append(f"{k},{report.f_pre.counts[offset]},{report.f_post.counts[offset]}")
    csv_path = out / "frequencies.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    return {"summary": summary_path, "frequencies": csv_path}
