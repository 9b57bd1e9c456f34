"""Parameters of the benchmark's workloads; the single source for every
size, probability and schedule the benchmark uses.

Each workload stresses a different module of ``msr_audit``:

- ``audit-longref``: two shots make each reference half its document, so the
  match kernel dominates CPU time and the longest pairs show in peak memory.
- ``sweep-length``: every truncation value re-tokenizes the whole corpus, so
  tokenization dominates while the kernel only sees short references.
- ``live-stub``: the audit talks HTTP to a local chat-completions stub with a
  fixed service delay and scripted 429s, so wall time is spent waiting in
  ``gateway``.
"""

from __future__ import annotations

# Shared by every workload: the corpus vocabulary and the in-flight cap.
# max_in_flight equals the core count of the 2-core reference machine; the
# library default of 4 threads would oversubscribe it.
ZIPF_EXPONENT = 1.1
VOCABULARY = 20_000
MAX_IN_FLIGHT = 2
L_MIN, L_MAX = 5, 12
# The chunk-copy model cuts references into chunks of 3 to 12 words, so
# copied runs of every counted length l_min..l_max occur.
CHUNK_WORDS = (3, 12)
COPY_P = {"pre": 0.35, "post": 0.05}

# Number of fresh processes timed for setup_s; the median is reported.
SETUP_SAMPLES = 9

WORKLOADS = {
    "audit-longref": {
        "api": "run_audit",
        "docs_per_cohort": 12,
        # Log-uniform document lengths in words; see synth.document_lengths.
        # Up to 6,000 words the largest kernel calls made run-to-run noise on
        # a shared host about twice as large.
        "lengths": ("loguniform", 1000, 3000),
        "shots": 2,
        "min_words": 500,
        "backend": "chunk-copy",
    },
    "sweep-length": {
        "api": "sweep_length",
        "docs_per_cohort": 20,
        # Long documents against short references: tokenizing the full text
        # for every sweep value outweighs matching the truncated references.
        "lengths": ("uniform", 7200, 8800),
        "shots": 6,
        "min_words": 1000,
        "sweep": (600, 1200, 2400),
        "backend": "chunk-copy",
    },
    "live-stub": {
        "api": "run_audit",
        "docs_per_cohort": 100,
        "lengths": ("uniform", 360, 440),
        "shots": 6,
        "min_words": 200,
        "backend": "live",
        # The stub sleeps this long before every 200 response and answers
        # every k-th POST with an immediate 429.
        "service_delay_s": 0.020,
        "http_429_every": 8,
        # Small, fixed retry backoff: the CLI default of 0.5-1.5 s of random
        # sleep would dominate the run and make it unsteady.
        "backoff_base_s": 0.002,
    },
}
