"""Independent reference implementations used to cross-check the package.

Everything here deliberately takes a different algorithmic route from the
production code: matches come from a scan over every start pair that extends
each run by hand, token by token, where the kernel pairs run starts with run
ends on each diagonal in vectorised numpy; rank statistics are computed with
exact fractions and the textbook rank-sum formula, and tail probabilities
come from mpmath / the erfc closed form rather than scipy. Token spans come
from a regex scan rather than a lookup table over code points.
``token_texts`` reads a tokenized document's words off its spans.
"""

from __future__ import annotations

import bisect
import math
import re
from fractions import Fraction
from typing import NamedTuple, Sequence

import mpmath


class MaximalMatch(NamedTuple):
    """A shared contiguous token run extendable in neither direction.

    ``pos_ref``/``pos_gen`` are the start token indices of the run in the
    reference and generated sequences; ``length`` is the run length in words.
    """

    length: int
    pos_ref: int
    pos_gen: int


def token_texts(doc) -> tuple[str, ...]:
    """The words a ``TokenizedDocument``'s spans cover, in order."""
    return tuple(doc.text[start:end] for start, end in doc.tokens.tolist())


def oracle_token_spans(text: str) -> list[tuple[int, int]]:
    """Half-open spans of the regex ``\\S+`` matches, left to right."""
    return [m.span() for m in re.finditer(r"\S+", text)]


def oracle_maximal_matches(ref: Sequence[str], gen: Sequence[str]) -> list[MaximalMatch]:
    """Quadratic scan over start pairs, extending each run by hand."""
    out = []
    for i in range(len(ref)):
        for j in range(len(gen)):
            if ref[i] != gen[j]:
                continue
            if i > 0 and j > 0 and ref[i - 1] == gen[j - 1]:
                continue  # left-extendable: not a run start
            k = 0
            while i + k < len(ref) and j + k < len(gen) and ref[i + k] == gen[j + k]:
                k += 1
            out.append(MaximalMatch(length=k, pos_ref=i, pos_gen=j))
    out.sort(key=lambda m: (m.pos_ref, m.pos_gen))
    return out


def oracle_rows(ref: Sequence[str], gen: Sequence[str]) -> list[list[int]]:
    """The oracle's matches as ``[length, pos_ref, pos_gen]`` rows, the form
    ``maximal_common_substrings(...).tolist()`` takes."""
    return [list(m) for m in oracle_maximal_matches(ref, gen)]


def longest_common_substring_len(ref: Sequence[str], gen: Sequence[str]) -> int:
    """Length in words of the longest contiguous run present in both sequences."""
    return max((m.length for m in oracle_maximal_matches(ref, gen)), default=0)


def oracle_frequency_counts(
    lengths: Sequence[int], l_min: int, l_max: int, exact: bool = False
) -> tuple[int, ...]:
    """Per k in [l_min, l_max], how many lengths equal k (``exact``) or reach it."""
    if exact:
        return tuple(sum(1 for n in lengths if n == k) for k in range(l_min, l_max + 1))
    return tuple(sum(1 for n in lengths if n >= k) for k in range(l_min, l_max + 1))


def oracle_cliffs_delta(x: Sequence[float], y: Sequence[float]) -> Fraction:
    """Exact delta via the Mann-Whitney U relation delta = 2U/(nm) - 1."""
    ys = sorted(y)
    u = Fraction(0)
    for a in x:
        below = bisect.bisect_left(ys, a)
        tied = bisect.bisect_right(ys, a) - below
        u += below + Fraction(tied, 2)
    return 2 * u / (len(x) * len(ys)) - 1


def oracle_ks_distance(x: Sequence[float], y: Sequence[float]) -> Fraction:
    """Exact two-sample KS distance by explicit ECDF counting."""
    best = Fraction(0)
    for t in set(x) | set(y):
        fx = Fraction(sum(1 for v in x if v <= t), len(x))
        fy = Fraction(sum(1 for v in y if v <= t), len(y))
        best = max(best, abs(fx - fy))
    return best


def _oracle_ranks(pooled: Sequence[float]) -> tuple[list[Fraction], Fraction]:
    """Mid-ranks for a sorted pool, plus the tie term sum(t^3 - t)."""
    ranks: list[Fraction] = [Fraction(0)] * len(pooled)
    tie_term = Fraction(0)
    i = 0
    while i < len(pooled):
        j = i
        while j < len(pooled) and pooled[j] == pooled[i]:
            j += 1
        # positions i+1 .. j hold the same value; average their 1-based ranks
        mid = Fraction(i + 1 + j, 2)
        for k in range(i, j):
            ranks[k] = mid
        t = j - i
        tie_term += t**3 - t
        i = j
    return ranks, tie_term


def oracle_kruskal_h(groups: Sequence[Sequence[float]]) -> Fraction:
    """Exact tie-corrected H via the rank-sum form 12/(N(N+1)) sum R_i^2/n_i - 3(N+1)."""
    pooled = sorted((v, gi) for gi, g in enumerate(groups) for v in g)
    ranks, tie_term = _oracle_ranks([v for v, _ in pooled])
    n_total = len(pooled)
    rank_sums = [Fraction(0)] * len(groups)
    for (_, gi), rank in zip(pooled, ranks):
        rank_sums[gi] += rank
    h = Fraction(12, n_total * (n_total + 1)) * sum(
        rank_sums[gi] ** 2 / Fraction(len(g)) for gi, g in enumerate(groups)
    ) - 3 * (n_total + 1)
    correction = 1 - Fraction(tie_term, n_total**3 - n_total)
    if correction == 0:
        return Fraction(0)
    return h / correction


def oracle_chi2_sf(value: float, df: int) -> float:
    """Upper chi-squared tail via mpmath's regularized incomplete gamma."""
    return float(mpmath.gammainc(df / 2.0, a=value / 2.0, regularized=True))


def oracle_chi2_sf_df1(value: float) -> float:
    """Closed form for one degree of freedom: erfc(sqrt(x/2))."""
    return math.erfc(math.sqrt(value / 2.0))
