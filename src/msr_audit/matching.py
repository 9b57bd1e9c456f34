"""Word-level maximal common substring enumeration, and match counts per
length threshold comparing a reference segment with a generated completion.

The counts are plain tuples, one entry per threshold k in [l_min, l_max]; the
thresholds themselves belong to the audit's config, not to the counts.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

# Most equal q-gram pairs the match kernel lists at once, unless one reference
# row alone holds more; its per-chunk arrays then stay near 19 MB.
_BLOCK = 2**20


def _intern(ref_tokens: Sequence[str], gen_tokens: Sequence[str]) -> tuple[np.ndarray, int]:
    """Both sequences as one int32 array of token ids, and a bound above
    every id.

    A token's id is the position of its first occurrence in ref + gen, so
    equal tokens get equal ids and the bound is the total length. The ids
    are not dense, but ``dict.setdefault`` mapped over the tokens and their
    positions runs in C, without a Python frame per token.
    """
    total = len(ref_tokens) + len(gen_tokens)
    first: dict[str, int] = {}
    tokens = itertools.chain(ref_tokens, gen_tokens)
    return np.fromiter(map(first.setdefault, tokens, itertools.count()), np.int32, total), total


def _qgram_keys(ids: np.ndarray, n_ids: int, q: int) -> np.ndarray:
    """Exact keys of the q-grams ``ids[p : p + q]``: equal keys iff equal q-grams.

    Every id lies in [0, ``n_ids``). Appends one id per pass, packing in
    base ``n_ids`` into int64. Before a pass whose keys could reach 2**62,
    the keys so far are renumbered densely by ``np.unique``, so they drop
    below len(ids) and the packing goes on.
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


def _diagonal_key(i: np.ndarray, j: np.ndarray, n_ref: int) -> np.ndarray:
    """Key (j - i) * n_ref + i of pairs (i, j), 0 <= i < n_ref: diagonal d's
    keys fill [d * n_ref, (d + 1) * n_ref) and grow by one along it."""
    return (j.astype(np.int64) - i) * n_ref + i


def _matches(lengths: np.ndarray, start_i: np.ndarray, start_j: np.ndarray) -> np.ndarray:
    # Filled column by column: np.stack's own overhead is a few microseconds,
    # a noticeable share of the kernel on short pairs.
    matches = np.empty((len(lengths), 3), dtype=np.int32)
    matches[:, 0], matches[:, 1], matches[:, 2] = lengths, start_i, start_j
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
    is the interned token id. A sort-join of the keys (argsort +
    searchsorted) gives each ref position i the gen positions j whose q-gram
    equals its own, and so each row i's pair count. The pairs (i, j) are
    listed (repeat + arange) in (i, j) order: all at once when P is at most
    ``_BLOCK``, else ``max(1, _BLOCK // m)`` consecutive rows at a time, which
    bounds a chunk by ``_BLOCK`` pairs, or by one row's m when the completion
    alone is longer. A pair starts a run when the tokens before it,
    (i - 1, j - 1), are off-grid or unequal, and ends one when the tokens
    after it, (i + q, j + q), are; a chunk keeps its run starts as (i, j)
    and its run ends only as diagonal keys (j - i) * n + i
    (``_diagonal_key``). A run of r such pairs on one diagonal is one
    maximal match of r + q - 1 words. Diagonal d's keys fill
    [d * n, (d + 1) * n) and grow by one along it, and runs on one diagonal
    are disjoint, so the first end key at or after a start key ends that
    start's run: one ``np.sort`` of the end keys and one ``np.searchsorted``
    of the start keys pair them, and a pair's keys differ by the run's
    length less q. Starts keep their (i, j) order, so the result needs no
    final sort.

    With P equal q-gram pairs and R runs this takes O(q (n + m) log(n + m)
    + P + R log R) time and O(n + m + min(P, max(_BLOCK, m)) + R) memory,
    held in int32 arrays (keys are int64). For words drawn with frequencies
    p_w, P at q = 1 is about n * m * sum(p_w ** 2), far below n * m, so an
    ordinary pair is one chunk; a larger q keeps only the pairs that begin a
    common q-gram, which drops the single frequent words that dominate it.
    The worst case is one token filling both sides: every q-gram is then
    equal too, so P is about n * m at any q while R is only about n + m.
    There the kernel peaks near 19 MB (tracemalloc) at 2048 x 2048 tokens
    (q = 1) and at 4096 x 4096 (q = 5), and takes about 0.07 s and 0.3 s.
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
    counts = np.searchsorted(sorted_b, key_a, "right") - lo
    n_pairs = int(counts.sum())
    if n_pairs == 0:
        return _matches(none, none, none)

    # Distinct sentinels past both ends make off-grid neighbours unequal:
    # pad[i] is the token before position i, pad[q + 1:][i] the one q after it.
    a_pad = np.concatenate(([-1], a, [-1]), dtype=np.int32)
    b_pad = np.concatenate(([-2], b, [-2]), dtype=np.int32)
    start_i, start_j, end_keys = [], [], []
    # A row holds at most n_gen pairs, so a chunk of this many rows holds at
    # most _BLOCK pairs, or it is one row.
    step = len(counts) if n_pairs <= _BLOCK else max(1, _BLOCK // n_gen)
    for first in range(0, len(counts), step):
        rows = slice(first, first + step)
        row_counts = counts[rows]
        pair_i = np.repeat(np.arange(first, first + len(row_counts), dtype=np.int32), row_counts)
        # Row i's pairs take the slots lo[i], lo[i] + 1, ... of order. lo[i]
        # less the chunk's pairs before row i lies in [-_BLOCK, m), and every
        # slot in [0, m), so int32 holds them.
        base = (lo[rows] - (np.cumsum(row_counts) - row_counts)).astype(np.int32)
        pair_j = order[np.repeat(base, row_counts) + np.arange(len(pair_i), dtype=np.int32)]
        is_start = a_pad[pair_i] != b_pad[pair_j]
        is_end = a_pad[q + 1 :][pair_i] != b_pad[q + 1 :][pair_j]
        start_i.append(pair_i[is_start])
        start_j.append(pair_j[is_start])
        end_keys.append(_diagonal_key(pair_i[is_end], pair_j[is_end], n_ref))
    start_i, start_j = np.concatenate(start_i), np.concatenate(start_j)

    # The first end key at or after a start key ends that start's run.
    start_keys = _diagonal_key(start_i, start_j, n_ref)
    end_keys = np.sort(np.concatenate(end_keys))
    lengths = end_keys[np.searchsorted(end_keys, start_keys)] - start_keys + q

    return _matches(lengths, start_i, start_j)


def longest_match_below(ref_tokens: Sequence[str], gen_tokens: Sequence[str], bound: int) -> int:
    """The longest common run's length in words, capped at ``bound - 1``.

    For ``bound >= 1`` it equals the longest row length of
    ``maximal_common_substrings(ref, gen)``, capped at ``bound - 1``. The
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
) -> tuple[int, ...]:
    """Count match lengths per threshold k in [l_min, l_max].

    ``lengths`` holds one non-negative length per match, such as column 0 of
    ``maximal_common_substrings``. By default counts[k - l_min] is the number
    of matches of length >= k, so the counts are non-increasing. With
    ``exact=True`` it counts matches of length exactly k instead (the counts
    are then not necessarily non-increasing). Lengths below ``l_min`` are
    never counted.
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
    return tuple(counts.tolist())


def sum_arrays(arrays: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Element-wise sum of count tuples over the same thresholds, and so of
    the same length."""
    if not arrays:
        raise ValueError("cannot sum an empty sequence of frequency arrays")
    widths = sorted({len(arr) for arr in arrays})
    if len(widths) > 1:
        raise ValueError(f"frequency arrays differ in length: {widths}")
    return tuple(map(sum, zip(*arrays)))
