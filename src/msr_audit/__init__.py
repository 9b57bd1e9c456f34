"""Corpus-auditing toolkit for black-box verbatim-regurgitation testing.

Builds faux multi-turn transcripts from source documents, elicits the held-out
final segment from a chat-completions backend (live or mock), counts word-level
maximal verbatim matches against the reference, and compares match-frequency
distributions between a likely-trained cohort and a post-cutoff control cohort
with non-parametric statistics.
"""

from types import ModuleType as _ModuleType

from msr_audit.corpus import (
    CorpusError,
    Document,
    TokenizedDocument,
    filter_by_length,
    load_corpus,
    tokenize,
    tokenize_document,
    truncate,
)
from msr_audit.gateway import (
    Backend,
    BackendError,
    GenerationCache,
    GenerationParams,
    LiveBackend,
    ObliviousBackend,
    PartialCopyBackend,
    VerbatimBackend,
    backend_from_spec,
    generate_batch,
)
from msr_audit.matching import (
    frequency_array,
    maximal_common_substrings,
    sum_arrays,
)
from msr_audit.prompting import (
    DEFAULT_SYSTEM_PROMPT,
    GeneratedCompletion,
    Transcript,
    build_transcript,
    format_transcript,
    segment,
)
from msr_audit.runner import (
    AuditReport,
    DocumentMatchSummary,
    ExperimentConfig,
    emit_report,
    low_vs_high,
    report_to_dict,
    run_audit,
    sweep,
    sweep_length,
)
from msr_audit.stats import (
    CohortComparison,
    cliffs_delta,
    compare_cohorts,
    compare_samples,
    kruskal_wallis,
    ks_distance,
)

__version__ = "0.1.0"

# The imports above are the public API; every public name they bind is exported.
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
