"""Output check that shares no code with ``msr_audit.matching`` or
``msr_audit.runner``.

For every document it recomputes, from the corpus text alone, the
reference (whitespace split plus the documented balanced segmentation), the
completion the backend must have produced, every maximal match, the longest
match and the per-threshold counts, and compares them with the program's
``summary.json``. It also checks that ``frequencies.csv`` holds the column
sums of the per-document counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Prepared:
    """A document cut into faux turns and the held-out reference."""

    turns: tuple[str, ...]
    reference_text: str
    reference_tokens: tuple[str, ...]


def prepare(text: str, shots: int, truncate: int | None = None) -> Prepared:
    """Split on whitespace, keep the first ``truncate`` words, and cut the
    words into ``shots`` contiguous segments whose sizes differ by at most one,
    larger segments first. Segment texts are the exact character slices from
    their first word's start to their last word's end."""
    spans = []
    pos = 0
    for word in text.split():
        start = text.index(word, pos)
        pos = start + len(word)
        spans.append((start, pos))
    if truncate is not None:
        spans = spans[:truncate]
    base, extra = divmod(len(spans), shots)
    segments = []
    first = 0
    for i in range(shots):
        last = first + base + (1 if i < extra else 0)
        segments.append(text[spans[first][0] : spans[last - 1][1]])
        first = last
    reference = segments[-1]
    return Prepared(tuple(segments[:-1]), reference, tuple(reference.split()))


def maximal_match_lengths(a: Sequence[str], b: Sequence[str]) -> list[int]:
    """Lengths of every maximal common run of ``a`` and ``b``: each equal
    position pair that cannot be extended to the left starts one run."""
    where: dict[str, list[int]] = {}
    for j, token in enumerate(b):
        where.setdefault(token, []).append(j)
    lengths = []
    for i, token in enumerate(a):
        for j in where.get(token, ()):
            if i and j and a[i - 1] == b[j - 1]:
                continue
            k = 1
            while i + k < len(a) and j + k < len(b) and a[i + k] == b[j + k]:
                k += 1
            lengths.append(k)
    return lengths


def threshold_counts(lengths: Sequence[int], l_min: int, l_max: int) -> list[int]:
    """Number of runs of length at least k, for k = l_min .. l_max."""
    return [sum(1 for n in lengths if n >= k) for k in range(l_min, l_max + 1)]


@dataclass(frozen=True)
class Expected:
    longest: int
    counts: tuple[int, ...]


def expected_for(prepared: Prepared, completion: str, l_min: int, l_max: int) -> Expected:
    lengths = maximal_match_lengths(prepared.reference_tokens, completion.split())
    return Expected(max(lengths, default=0), tuple(threshold_counts(lengths, l_min, l_max)))


def check_summary(summary: dict, expected: dict[str, Expected]) -> list[str]:
    """Mismatches between ``summary.json`` and the expected documents."""
    problems = []
    found = {doc["doc_id"]: doc for doc in summary["documents"]}
    for doc_id, want in expected.items():
        got = found.get(doc_id)
        if got is None:
            problems.append(f"{doc_id}: missing from summary.json")
        elif got["longest_match"] != want.longest or tuple(got["counts"]) != want.counts:
            problems.append(
                f"{doc_id}: summary has longest {got['longest_match']} counts {got['counts']},"
                f" expected longest {want.longest} counts {list(want.counts)}"
            )
    return problems


def check_frequencies(csv_text: str, summary: dict, l_min: int, l_max: int) -> list[str]:
    """Mismatches between ``frequencies.csv`` and the column sums of the
    per-document counts in ``summary.json``."""
    sums = {"pre": [0] * (l_max - l_min + 1), "post": [0] * (l_max - l_min + 1)}
    for doc in summary["documents"]:
        sums[doc["cohort"]] = [x + y for x, y in zip(sums[doc["cohort"]], doc["counts"])]
    want = ["k,count_pre,count_post"]
    want += [f"{k},{pre},{post}" for k, pre, post in zip(range(l_min, l_max + 1), sums["pre"], sums["post"])]
    got = csv_text.splitlines()
    if got == want:
        return []
    return [f"frequencies.csv has {got}, expected {want}"]
