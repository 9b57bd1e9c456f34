"""Word-level maximal common substring enumeration and threshold-counted
frequency arrays comparing a reference segment with a generated completion.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class FrequencyArray:
    """Match counts per length threshold k in [l_min, l_max].

    Under the default threshold semantics counts[k - l_min] is the number of
    maximal matches of length >= k, which makes the array non-increasing.
    """

    l_min: int
    l_max: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.l_min < 1:
            raise ValueError(f"l_min must be >= 1, got {self.l_min}")
        if self.l_min > self.l_max:
            raise ValueError(f"l_min ({self.l_min}) must be <= l_max ({self.l_max})")
        if len(self.counts) != self.l_max - self.l_min + 1:
            raise ValueError(
                f"counts has {len(self.counts)} entries, expected {self.l_max - self.l_min + 1}"
            )
        if any(c < 0 for c in self.counts):
            raise ValueError("counts must be non-negative")


def _intern(ref_tokens: Sequence[str], gen_tokens: Sequence[str]) -> tuple[np.ndarray, int]:
    """Both sequences as one int32 array of dense token ids, and the id count."""
    ids: dict[str, int] = {}
    tokens = itertools.chain(ref_tokens, gen_tokens)
    interned = np.fromiter(
        (ids.setdefault(t, len(ids)) for t in tokens), np.int32, len(ref_tokens) + len(gen_tokens)
    )
    return interned, len(ids)


def _qgram_keys(ids: np.ndarray, n_ids: int, q: int) -> np.ndarray:
    """Exact keys of the q-grams ``ids[p : p + q]``: equal keys iff equal q-grams.

    Appends one id per pass, packing in base ``n_ids`` into int64. Before a
    pass whose keys could reach 2**62, the keys so far are renumbered densely
    by ``np.unique``, so they drop below len(ids) and the packing goes on.
    No key is a hash, so two different q-grams never share one.
    """
    if q == 1:
        return ids
    n_keys = len(ids) - q + 1
    keys = ids[:n_keys].astype(np.int64)
    bound = n_ids  # every key lies in [0, bound)
    for offset in range(1, q):
        if bound * n_ids > 2**62:
            distinct, keys = np.unique(keys, return_inverse=True)
            bound = len(distinct)
        keys *= n_ids
        keys += ids[offset : offset + n_keys]
        bound *= n_ids
    return keys


def _diagonal_order(i: np.ndarray, j: np.ndarray, n_ref: int) -> np.ndarray:
    """Indices that sort pairs by (diagonal j - i, i); the key is unique."""
    return np.argsort((j.astype(np.int64) - i) * n_ref + i)


def _matches(lengths: np.ndarray, start_i: np.ndarray, start_j: np.ndarray) -> np.ndarray:
    matches = np.stack((lengths, start_i, start_j), axis=1)
    matches.flags.writeable = False
    return matches


def maximal_common_substrings(
    ref_tokens: Sequence[str], gen_tokens: Sequence[str], min_length: int = 1
) -> np.ndarray:
    """Every maximal common token run of at least ``min_length`` words
    between two sequences, as one array.

    A run is maximal when it cannot be extended left or right at its pair of
    positions. The result is a read-only (k, 3) int32 array with one row
    ``(length, pos_ref, pos_gen)`` per run: its length in words and its start
    token indices in the reference and generated sequences. Each distinct
    (pos_ref, pos_gen) start appears exactly once, and rows are sorted by
    (pos_ref, pos_gen). No such run gives shape (0, 3). The rows are those of
    ``min_length=1`` whose length is at least ``min_length``.

    Works on the sparse set of equal q-gram pairs (q = ``min_length``)
    instead of the full n x m equality matrix (n = len(ref), m = len(gen)).
    Each q-gram gets an exact integer key (``_qgram_keys``); at q = 1 the key
    is the interned token id. A sort-join of the keys (argsort + searchsorted
    + repeat) lists every pair (i, j) whose q-grams at i and j are equal, in
    (i, j) order. A pair starts a run when the tokens before it,
    (i - 1, j - 1), are off-grid or unequal, and ends one when the tokens
    after it, (i + q, j + q), are. A run of r such pairs on one diagonal is
    one maximal match of r + q - 1 words. Runs on one diagonal j - i are
    disjoint, so once starts and ends are each sorted by (diagonal, i) the
    k-th start and the k-th end bound the same run. Starts keep their (i, j)
    order, so the result needs no final sort.

    With P equal q-gram pairs this takes O(q (n + m) + P log P) time and
    O(n + m + P) memory, held in int32 arrays (keys are int64 for q > 1).
    For words drawn with frequencies p_w, P at q = 1 is about
    n * m * sum(p_w ** 2), far below n * m; a larger q keeps only the pairs
    that begin a common q-gram, which drops the single frequent words that
    dominate it. The worst case is one token filling both sides: every
    q-gram is then equal too, so P is about n * m at any q: at 2048 x 2048
    tokens the kernel takes 120-155 ms and peaks near 76 MB (tracemalloc) at
    q = 1 and at q = 5 alike, where a dense DP table needs about 29 MB.
    """
    if min_length < 1:
        raise ValueError(f"min_length must be >= 1, got {min_length}")
    q = min_length
    n_ref, n_gen = len(ref_tokens), len(gen_tokens)
    none = np.empty(0, dtype=np.int32)
    if n_ref < q or n_gen < q:
        return _matches(none, none, none)
    ids, n_ids = _intern(ref_tokens, gen_tokens)
    a, b = ids[:n_ref], ids[n_ref:]
    # keys[p] is the q-gram at p of ref + gen; those crossing the seam are
    # never read.
    keys = _qgram_keys(ids, n_ids, q)
    key_a, key_b = keys[: n_ref - q + 1], keys[n_ref:]

    # Sort-join: each ref position i meets the gen positions of its q-gram,
    # which a stable argsort of key_b lists in ascending order.
    order = np.argsort(key_b, kind="stable").astype(np.int32)
    sorted_b = key_b[order]
    lo = np.searchsorted(sorted_b, key_a, "left")
    hi = np.searchsorted(sorted_b, key_a, "right")
    counts = hi - lo
    n_pairs = int(counts.sum())
    if n_pairs == 0:
        return _matches(none, none, none)
    pair_i = np.repeat(np.arange(len(key_a), dtype=np.int32), counts)
    # i's pairs take the slots lo[i] .. hi[i] - 1 of sorted_b, one after the
    # other: a running sum of int32 steps that jumps at each i's first pair.
    # Every partial sum is a slot, so none overflows.
    hit = counts > 0
    lo, hi, counts = lo[hit], hi[hit], counts[hit]
    slot = np.ones(n_pairs, dtype=np.int32)
    slot[np.cumsum(counts) - counts] = lo - np.concatenate(([0], hi[:-1] - 1))
    pair_j = order[np.cumsum(slot, out=slot)]
    del slot

    # Distinct sentinels past both ends make off-grid neighbours unequal:
    # pad[i] is the token before position i, pad[q + 1:][i] the one q after it.
    a_pad = np.concatenate(([-1], a, [-1]), dtype=np.int32)
    b_pad = np.concatenate(([-2], b, [-2]), dtype=np.int32)
    is_start = a_pad[pair_i] != b_pad[pair_j]
    is_end = a_pad[q + 1 :][pair_i] != b_pad[q + 1 :][pair_j]
    start_i, start_j = pair_i[is_start], pair_j[is_start]
    end_i, end_j = pair_i[is_end], pair_j[is_end]

    # The k-th start and the k-th end of one diagonal bound the same run.
    by_diag_start = _diagonal_order(start_i, start_j, n_ref)
    lengths = np.empty_like(start_i)
    lengths[by_diag_start] = (
        end_i[_diagonal_order(end_i, end_j, n_ref)] - start_i[by_diag_start] + q
    )

    return _matches(lengths, start_i, start_j)


def longest_common_substring_len(ref_tokens: Sequence[str], gen_tokens: Sequence[str]) -> int:
    """Length in words of the longest contiguous run present in both sequences."""
    return int(maximal_common_substrings(ref_tokens, gen_tokens)[:, 0].max(initial=0))


def longest_match_below(ref_tokens: Sequence[str], gen_tokens: Sequence[str], bound: int) -> int:
    """The longest common run's length in words, capped at ``bound - 1``.

    For ``bound >= 1`` it equals
    ``min(longest_common_substring_len(ref, gen), bound - 1)``. The
    audit calls it for a pair with no run of ``bound`` words, where it is the
    longest match itself. It tries q = ``bound - 1`` down to 1 and returns
    the first q at which the two sides share a q-gram key (``_qgram_keys``
    on one interned id array), so it never lists the matches themselves. A
    shared key is found by ``np.sort`` + ``np.searchsorted``, not
    ``np.intersect1d``, whose first call imports ``numpy.ma``.
    """
    n_ref = len(ref_tokens)
    top = min(bound - 1, n_ref, len(gen_tokens))
    if top < 1:
        return 0
    ids, n_ids = _intern(ref_tokens, gen_tokens)
    for q in range(top, 0, -1):
        keys = _qgram_keys(ids, n_ids, q)
        key_a, key_b = keys[: n_ref - q + 1], np.sort(keys[n_ref:])
        found = np.searchsorted(key_b, key_a).clip(max=len(key_b) - 1)
        if (key_b[found] == key_a).any():
            return q
    return 0


def frequency_array(
    lengths: Sequence[int] | np.ndarray,
    l_min: int,
    l_max: int,
    exact: bool = False,
) -> FrequencyArray:
    """Count match lengths per threshold k in [l_min, l_max].

    ``lengths`` holds one non-negative length per match, such as column 0 of
    ``maximal_common_substrings``. By default counts[k - l_min] is the number
    of matches of length >= k. With ``exact=True`` it counts matches of
    length exactly k instead (the resulting array is then not necessarily
    non-increasing). Lengths below ``l_min`` are never counted.
    """
    if l_min < 1 or l_min > l_max:
        raise ValueError(f"need 1 <= l_min <= l_max, got l_min={l_min}, l_max={l_max}")
    lengths = np.asarray(lengths, dtype=np.intp)
    if exact:
        counts = np.bincount(lengths[lengths <= l_max], minlength=l_max + 1)[l_min:]
    else:
        # Clipping at l_max puts every longer match in the last bin; the
        # reversed running sum then counts the matches at or above each k.
        counts = np.bincount(np.minimum(lengths, l_max), minlength=l_max + 1)[::-1].cumsum()[::-1][l_min:]
    return FrequencyArray(l_min=l_min, l_max=l_max, counts=tuple(counts.tolist()))


def sum_arrays(arrays: Sequence[FrequencyArray]) -> FrequencyArray:
    """Element-wise sum of frequency arrays sharing the same thresholds."""
    if not arrays:
        raise ValueError("cannot sum an empty sequence of frequency arrays")
    first = arrays[0]
    for arr in arrays[1:]:
        if (arr.l_min, arr.l_max) != (first.l_min, first.l_max):
            raise ValueError(
                f"threshold mismatch: [{arr.l_min}, {arr.l_max}] vs [{first.l_min}, {first.l_max}]"
            )
    counts = tuple(sum(col) for col in zip(*(arr.counts for arr in arrays)))
    return FrequencyArray(l_min=first.l_min, l_max=first.l_max, counts=counts)
