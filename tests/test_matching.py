from __future__ import annotations

import hashlib
import itertools
import random
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import longest_common_substring_len, oracle_frequency_counts, oracle_rows
from msr_audit import matching
from msr_audit.matching import (
    _intern,
    _qgram_keys,
    frequency_array,
    longest_match_below,
    maximal_common_substrings,
    sum_arrays,
)

token_lists = st.lists(st.sampled_from("abc"), max_size=14)
# Pair-list sizes for the block-wise join: 1 puts each row in a block of its
# own, so any row with two or more pairs exceeds its block; the last is the
# module's own, which holds every pair here in one block.
block_sizes = st.sampled_from((1, 3, 64, matching._BLOCK))


def test_known_matches_small_example():
    ref = "the cat sat on the mat".split()
    gen = "the cat on the mat".split()
    # rows are [length, pos_ref, pos_gen]
    assert maximal_common_substrings(ref, gen).tolist() == [
        [2, 0, 0],  # "the cat"
        [1, 0, 3],  # lone "the"
        [3, 3, 2],  # "on the mat"
        [1, 4, 0],  # lone "the"
    ]


def test_inserted_word_splits_a_match():
    assert maximal_common_substrings("a b c d".split(), "a b x c d".split()).tolist() == [
        [2, 0, 0],
        [2, 2, 3],
    ]


def test_identical_distinct_sequences_single_match():
    tokens = [f"w{i}" for i in range(30)]
    assert maximal_common_substrings(tokens, tokens).tolist() == [[30, 0, 0]]


def test_disjoint_sequences_no_matches():
    assert maximal_common_substrings(["a", "b"], ["c", "d"]).tolist() == []


def test_empty_inputs():
    assert maximal_common_substrings([], ["a"]).tolist() == []
    assert maximal_common_substrings(["a"], []).tolist() == []
    assert maximal_common_substrings([], []).tolist() == []


def test_repeated_token_yields_every_occurrence_pair():
    matches = maximal_common_substrings(["x", "y", "x"], ["x"])
    assert matches.tolist() == [[1, 0, 0], [1, 2, 0]]


def test_matches_are_sorted_and_unique_by_position():
    rng = random.Random(7)
    ref = [rng.choice("ab") for _ in range(50)]
    gen = [rng.choice("ab") for _ in range(50)]
    matches = maximal_common_substrings(ref, gen)
    keys = [(pos_ref, pos_gen) for _, pos_ref, pos_gen in matches.tolist()]
    assert keys == sorted(keys)
    assert len(keys) == len(set(keys))


def test_oracle_equivalence_random_pairs():
    rng = random.Random(42)
    for _ in range(200):
        ref = [rng.choice("abcde") for _ in range(rng.randrange(0, 41))]
        gen = [rng.choice("abcde") for _ in range(rng.randrange(0, 41))]
        assert maximal_common_substrings(ref, gen).tolist() == oracle_rows(ref, gen)


def _draw(seed, n, vocab):
    rng = random.Random(seed)
    return [f"w{rng.randrange(vocab)}" for _ in range(n)]


@pytest.mark.parametrize(
    ("ref", "gen"),
    [
        pytest.param("a b c d".split(), "x c d".split(), id="run-ends-on-both-last-tokens"),
        pytest.param("a b c d".split(), "c d y".split(), id="run-ends-on-last-ref-token"),
        pytest.param("q a b z".split(), "x y a b".split(), id="run-ends-on-last-gen-token"),
        pytest.param("a b a b".split(), "b a b a".split(), id="every-run-touches-an-edge"),
        pytest.param(["x"] * 7, ["x"] * 7, id="identical-tokens-square"),
        pytest.param(["x"] * 3, ["x"] * 9, id="identical-tokens-wide"),
        pytest.param(["x"] * 9, ["x"] * 3, id="identical-tokens-tall"),
        pytest.param(["x"], ["x"], id="one-token-sides-equal"),
        pytest.param(["x"], ["y"], id="one-token-sides-unequal"),
        pytest.param(["x"], "a x b x x".split(), id="one-token-ref"),
        pytest.param("a x b x x".split(), ["x"], id="one-token-gen"),
        pytest.param(
            [f"r{k}" for k in range(300)], [f"g{k}" for k in range(300)], id="large-vocab-disjoint"
        ),
        pytest.param(_draw(5, 200, 5), _draw(6, 200, 5), id="mid-size-vocab-5"),
    ],
)
def test_oracle_equivalence_edge_cases(ref, gen):
    assert maximal_common_substrings(ref, gen).tolist() == oracle_rows(ref, gen)


@given(token_lists, token_lists, block_sizes)
def test_oracle_equivalence_property(ref, gen, block):
    with mock.patch.object(matching, "_BLOCK", block):
        assert maximal_common_substrings(ref, gen).tolist() == oracle_rows(ref, gen)


@given(token_lists, token_lists)
def test_every_match_is_maximal(ref, gen):
    for k, i, j in maximal_common_substrings(ref, gen).tolist():
        assert k >= 1
        assert ref[i : i + k] == gen[j : j + k]
        if i > 0 and j > 0:
            assert ref[i - 1] != gen[j - 1]
        if i + k < len(ref) and j + k < len(gen):
            assert ref[i + k] != gen[j + k]


@given(token_lists, token_lists, st.integers(min_value=1, max_value=16), block_sizes)
def test_min_length_keeps_exactly_the_long_oracle_rows(ref, gen, q, block):
    expected = [row for row in oracle_rows(ref, gen) if row[0] >= q]
    with mock.patch.object(matching, "_BLOCK", block):
        assert maximal_common_substrings(ref, gen, q).tolist() == expected


def _chunk_copy(seed, n, vocab, chunk):
    """A reference of n uniform words over ``vocab`` words and a completion
    that copies every other ``chunk``-word piece of it and draws the rest
    afresh."""
    ref, fresh = _draw(seed, n, vocab), _draw(seed + 1, n, vocab)
    return ref, [(ref if (p // chunk) % 2 else fresh)[p] for p in range(n)]


def test_min_length_past_one_int64_key_small_vocab():
    # 30 ** 20 > 2 ** 62: the 20-gram keys must be renumbered while packing.
    ref, gen = _chunk_copy(8, 400, 30, 25)
    expected = [row for row in oracle_rows(ref, gen) if row[0] >= 20]
    assert len(expected) >= 5
    assert maximal_common_substrings(ref, gen, 20).tolist() == expected


@pytest.mark.parametrize("q", [5, 12])
def test_min_length_on_long_pair_over_large_vocab(q):
    # About 3,000 distinct words: a 5-gram fits one int64 key, a 12-gram
    # does not.
    ref, gen = _chunk_copy(9, 3000, 5000, 30)
    every = maximal_common_substrings(ref, gen)
    expected = every[every[:, 0] >= q].tolist()
    assert len(expected) >= 40
    assert maximal_common_substrings(ref, gen, q).tolist() == expected


@given(token_lists, token_lists)
def test_intern_gives_equal_ids_exactly_to_equal_tokens(ref, gen):
    ids, bound = _intern(ref, gen)
    tokens = ref + gen
    assert ids.dtype == np.int32 and len(ids) == len(tokens)
    assert all(0 <= i < bound for i in ids.tolist())
    # Equal ids iff equal tokens: both partition the positions alike.
    assert len(set(ids.tolist())) == len(set(tokens)) == len(set(zip(ids.tolist(), tokens)))


# (8192, 5000, 5): the id bound is 8192 = 2**13, so 5-gram keys would reach
# 2**65 and must be renumbered while packing.
@pytest.mark.parametrize(
    ("n", "vocab", "q"), [(400, 30, 20), (6000, 5000, 12), (6000, 5000, 5), (8192, 5000, 5), (50, 2, 9)]
)
def test_qgram_keys_are_exact_and_below_2_to_62(n, vocab, q):
    rng = random.Random(n + q)
    tokens = [f"w{rng.randrange(vocab)}" for _ in range(n)]
    ids, n_ids = _intern(tokens, [])
    keys = _qgram_keys(ids, n_ids, q).tolist()
    assert len(keys) == n - q + 1
    assert 0 <= min(keys) and max(keys) < 2**62
    grams = [tuple(tokens[p : p + q]) for p in range(n - q + 1)]
    # Equal keys iff equal q-grams: both partition the positions alike.
    assert len(set(keys)) == len(set(grams)) == len(set(zip(keys, grams)))


def test_min_length_below_one_is_rejected():
    for q in (0, -3):
        with pytest.raises(ValueError, match="min_length"):
            maximal_common_substrings(["a"], ["a"], q)


@pytest.mark.parametrize(
    ("ref", "gen"),
    [
        pytest.param("a b".split(), "a b c".split(), id="short-ref"),
        pytest.param("a b c".split(), "a b".split(), id="short-gen"),
        pytest.param([], [], id="both-empty"),
    ],
)
def test_side_shorter_than_min_length_gives_no_rows(ref, gen):
    matches = maximal_common_substrings(ref, gen, 3)
    assert matches.shape == (0, 3) and matches.dtype == np.int32
    assert not matches.flags.writeable


def test_longest_common_substring_len():
    assert longest_common_substring_len("a b c".split(), "b c d".split()) == 2
    assert longest_common_substring_len(["a"], ["b"]) == 0


def _zipf_pair(seed, vocab=60):
    """A Zipf-like reference (s = 1.1) and a completion that copies some of
    its chunks and draws the rest afresh; lengths 0-80 words."""
    rng = random.Random(seed)
    words = [f"w{r}" for r in range(vocab)]
    weights = [r**-1.1 for r in range(1, vocab + 1)]
    ref = rng.choices(words, weights, k=rng.randrange(81))
    gen = []
    target = rng.randrange(81)
    while len(gen) < target:
        chunk = rng.randint(1, 9)
        if ref and rng.random() < 0.3:
            start = rng.randrange(len(ref))
            gen.extend(ref[start : start + chunk])
        else:
            gen.extend(rng.choices(words, weights, k=chunk))
    return ref, gen


def test_longest_match_below_is_the_capped_oracle_on_zipf_pairs():
    for seed in range(40):
        ref, gen = _zipf_pair(seed)
        longest = longest_common_substring_len(ref, gen)
        for bound in range(1, 13):
            assert longest_match_below(ref, gen, bound) == min(longest, bound - 1), (seed, bound)


@given(token_lists, token_lists, st.integers(min_value=1, max_value=16))
def test_longest_match_below_is_the_capped_oracle(ref, gen, bound):
    expected = min(longest_common_substring_len(ref, gen), bound - 1)
    assert longest_match_below(ref, gen, bound) == expected


@pytest.mark.parametrize(
    ("ref", "gen", "bound", "expected"),
    [
        pytest.param("a b c".split(), [], 5, 0, id="empty-completion"),
        pytest.param([], "a b c".split(), 5, 0, id="empty-reference"),
        pytest.param("a b c".split(), "a b c".split(), 1, 0, id="l_min-1"),
        pytest.param("a b".split(), "x a b y".split(), 5, 2, id="ref-shorter-than-q"),
        pytest.param("x a b c y".split(), "c a b".split(), 5, 2, id="gen-shorter-than-q"),
        pytest.param("a b c d e f".split(), "a b c d e f".split(), 5, 4, id="run-reaches-bound"),
        pytest.param("a b c".split(), "d e f".split(), 5, 0, id="no-common-token"),
    ],
)
def test_longest_match_below_edge_cases(ref, gen, bound, expected):
    assert longest_match_below(ref, gen, bound) == expected
    assert type(longest_match_below(ref, gen, bound)) is int


def test_kernel_is_fast_on_512_tokens():
    rng = random.Random(3)
    ref = [f"t{rng.randrange(50)}" for _ in range(512)]
    gen = [f"t{rng.randrange(50)}" for _ in range(512)]
    maximal_common_substrings(ref, gen)  # warm-up
    best = min(
        _timed(lambda: maximal_common_substrings(ref, gen)) for _ in range(3)
    )
    assert best < 0.010, f"512-token match took {best * 1e3:.2f} ms"


def _timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_frequency_array_threshold_semantics():
    arr = frequency_array([5, 3, 12, 7], l_min=5, l_max=12)
    # matches >= k for k = 5..12: lengths {5, 7, 12} qualify progressively
    assert arr == (3, 2, 2, 1, 1, 1, 1, 1)


def test_frequency_array_counts_above_l_max_once_per_threshold():
    arr = frequency_array([40], l_min=5, l_max=8)
    assert arr == (1, 1, 1, 1)


def test_frequency_array_ignores_short_matches():
    arr = frequency_array([1, 2, 4], l_min=5, l_max=6)
    assert arr == (0, 0)


def test_frequency_array_exact_mode():
    arr = frequency_array([5, 5, 6, 12, 40], l_min=5, l_max=12, exact=True)
    assert arr == (2, 1, 0, 0, 0, 0, 0, 1)  # 40 exceeds l_max: not counted


def test_frequency_array_threshold_counts_are_non_increasing():
    rng = random.Random(11)
    lengths = [rng.randrange(1, 20) for _ in range(100)]
    counts = frequency_array(lengths, l_min=2, l_max=15)
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_frequency_array_validates_bounds():
    with pytest.raises(ValueError):
        frequency_array([], l_min=0, l_max=5)
    with pytest.raises(ValueError):
        frequency_array([], l_min=6, l_max=5)


def test_sum_arrays():
    a, b = (3, 2, 1), (1, 1, 0)
    assert sum_arrays([a, b]) == (4, 3, 1)
    assert sum_arrays([a]) == a
    with pytest.raises(ValueError, match="empty"):
        sum_arrays([])
    with pytest.raises(ValueError, match=r"differ in length: \[3, 4\]"):
        sum_arrays([a, (1, 1, 0, 0)])


@given(st.lists(st.integers(min_value=1, max_value=30), max_size=40))
def test_threshold_array_is_suffix_sum_of_exact_array(lengths):
    thresh = frequency_array(lengths, 2, 10)
    exact = frequency_array(lengths, 2, 10, exact=True)
    overflow = sum(1 for k in lengths if k > 10)
    tail = overflow
    for idx in range(len(exact) - 1, -1, -1):
        tail += exact[idx]
        assert thresh[idx] == tail


@given(st.data())
def test_frequency_array_matches_count_oracle(data):
    l_max = data.draw(st.integers(min_value=1, max_value=20))
    l_min = data.draw(st.integers(min_value=1, max_value=l_max))
    lengths = data.draw(st.lists(st.integers(min_value=0, max_value=3 * l_max), max_size=60))
    for exact in (False, True):
        expected = oracle_frequency_counts(lengths, l_min, l_max, exact=exact)
        assert frequency_array(lengths, l_min, l_max, exact=exact) == expected
        counts = frequency_array(np.array(lengths, dtype=np.int32), l_min, l_max, exact=exact)
        assert counts == expected
        assert all(type(c) is int for c in counts)


@pytest.mark.parametrize(
    ("ref", "gen", "k"),
    [
        pytest.param("a b c a".split(), "b c d a".split(), 3, id="matches"),
        pytest.param([], ["a"], 0, id="empty-ref"),
        pytest.param(["a"], [], 0, id="empty-gen"),
        pytest.param(["a"], ["b"], 0, id="no-common-token"),
    ],
)
def test_kernel_returns_read_only_int32_rows(ref, gen, k):
    matches = maximal_common_substrings(ref, gen)
    assert matches.dtype == np.int32
    assert matches.shape == (k, 3)
    assert not matches.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        matches[:1] = 0
    assert type(longest_match_below(ref, gen, 13)) is int


def _zipf_chunk_copy_pair(seed, n):
    """A reference of n Zipf words (s = 1.1 over 20k words) and a completion
    that copies each 3-12 word chunk of it with probability 0.35 and
    otherwise draws as many Zipf words."""
    rng = random.Random(seed)
    words = [f"w{r}" for r in range(20_000)]
    cum_weights = list(itertools.accumulate(r**-1.1 for r in range(1, 20_001)))
    ref = rng.choices(words, cum_weights=cum_weights, k=n)
    gen = []
    while len(gen) < n:
        chunk = ref[len(gen) : len(gen) + rng.randint(3, 12)]
        if rng.random() < 0.35:
            gen.extend(chunk)
        else:
            gen.extend(rng.choices(words, cum_weights=cum_weights, k=len(chunk)))
    return ref, gen


@pytest.mark.parametrize(
    ("ref", "gen", "q", "rows", "bound_mb"),
    [
        pytest.param(*_zipf_chunk_copy_pair(1, 2048), 1, None, 12, id="zipf-chunk-copy-2048"),
        # n x n identical tokens: every q-gram pair is equal, and each of the
        # 2n - 1 diagonals with at least q cells holds one run.
        pytest.param(["x"] * 2048, ["x"] * 2048, 1, 2 * 2048 - 2 * 1 + 1, 32, id="identical-2048-q1"),
        pytest.param(["x"] * 4096, ["x"] * 4096, 5, 2 * 4096 - 2 * 5 + 1, 32, id="identical-4096-q5"),
        # Rows of uneven length across several chunks: half the reference is
        # x, half distinct words, so only the x rows hold pairs and every
        # diagonal of the all-x rectangle holds one run.
        pytest.param(
            ["x"] * 2048 + [f"w{k}" for k in range(2048)],
            ["x"] * 4096,
            5,
            (2048 - 5) + (4096 - 5) + 1,
            32,
            id="half-identical-4096-q5",
        ),
    ],
)
def test_kernel_memory_on_zipf_chunk_copy_pair(ref, gen, q, rows, bound_mb):
    maximal_common_substrings(ref[:64], gen[:64], q)  # warm-up, so one-off allocations are not counted
    tracemalloc.start()
    try:
        matches = maximal_common_substrings(ref, gen, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if rows is None:
        assert len(matches) > 100_000
    else:
        assert len(matches) == rows
    assert peak < bound_mb * 2**20, f"kernel peak {peak / 2**20:.1f} MB"


@pytest.mark.parametrize("block", [None, 997], ids=["one-block", "block-997"])
@pytest.mark.parametrize(
    ("q", "shape", "digest"),
    [
        (1, (269_338, 3), "721051619768284a965376992780e5292bb74de394c4c2a2b499bcce6a4f584c"),
        (5, (80, 3), "f5002d707f71a135f42e48565128810cf0642e5cac66c90004157f4393dc051d"),
    ],
)
def test_kernel_rows_are_golden_on_long_zipf_chunk_copy_pair(q, shape, digest, block):
    # Pins every byte of the rows of a pair too long for the oracle tests.
    # At q = 1 its 278,951 equal pairs are listed at once, or with _BLOCK at
    # 997, below the completion's 3,000 words, in 3,000 one-row chunks; at
    # q = 5 its 715 pairs are listed at once either way.
    ref, gen = _zipf_chunk_copy_pair(3, 3000)
    with mock.patch.object(matching, "_BLOCK", block or matching._BLOCK):
        matches = maximal_common_substrings(ref, gen, q)
    assert matches.shape == shape
    assert hashlib.sha256(matches.tobytes()).hexdigest() == digest
