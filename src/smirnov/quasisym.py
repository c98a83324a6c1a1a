"""Standardization of segmented Smirnov words, split sets, and the fundamental
quasisymmetric expansion of the standard-word enumerator."""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

from .qengine import QPolynomial
from .stats import sminv_count, stat_distributions
from .words import (FALL, SegmentedSmirnovWord, _Record, block_starts, enumerate_words_by_stat,
                    letter_content, occurrence_roles, words_of_length)


def standardize(w: SegmentedSmirnovWord) -> SegmentedSmirnovWord:
    """Relabel by the reading order: for each value, thin occurrences right to
    left, then thick occurrences left to right; smaller values read first."""
    # one key per position i, in reading order, i last; FALL and VALLEY are thick
    keys = [(m, True, i, i) if code >= FALL else (m, False, -i, i)
            for i, (m, code) in enumerate(zip(w.letters, occurrence_roles(w)))]
    sigma = [0] * w.n
    for rank, (_, _, _, i) in enumerate(sorted(keys), start=1):
        sigma[i] = rank
    return SegmentedSmirnovWord(tuple(sigma), w.shape)


def split_set(sigma: SegmentedSmirnovWord) -> frozenset:
    """Values v such that the positions i, j of v and v+1 satisfy one of:
    same block with |i-j| = 1; i thick and j thin; both thin with i < j;
    both thick with j < i."""
    letters = sigma.letters
    n = sigma.n
    if sorted(letters) != list(range(1, n + 1)):
        raise ValueError("split_set requires a segmented permutation")
    codes = occurrence_roles(sigma)
    starts = block_starts(sigma)
    pos = [0] * (n + 1)  # pos[v]: the 0-based position of v
    for i, v in enumerate(letters):
        pos[v] = i
    out = set()
    for v in range(1, n):
        i, j = pos[v], pos[v + 1]
        i_thick, j_thick = codes[i] >= FALL, codes[j] >= FALL
        if abs(i - j) == 1 and not starts[max(i, j)]:  # adjacent in one block
            out.add(v)
        elif i_thick and not j_thick:
            out.add(v)
        elif not i_thick and not j_thick and i < j:
            out.add(v)
        elif i_thick and j_thick and j < i:
            out.add(v)
    return frozenset(out)


def fiber_condition(sigma: SegmentedSmirnovWord, w: SegmentedSmirnovWord) -> bool:
    """Whether w lies in the standardization fiber of sigma: same shape, the
    letters of w are weakly increasing along consecutive values of sigma, and
    strictly increasing at splitting values."""
    if w.shape != sigma.shape:
        return False
    split = split_set(sigma)
    pos = {v: i for i, v in enumerate(sigma.letters, start=1)}
    for v in range(1, sigma.n):
        i, j = pos[v], pos[v + 1]
        if w.letters[i - 1] > w.letters[j - 1]:
            return False
        if v in split and w.letters[i - 1] == w.letters[j - 1]:
            return False
    return True


def composition_from_split(split: Iterable[int], n: int) -> tuple:
    """The composition of n whose partial sums are the split set."""
    sums = sorted(split)
    if sums and (sums[0] < 1 or sums[-1] >= n):
        raise ValueError("split set must lie in 1..n-1")
    parts = []
    prev = 0
    for s in sums + [n]:
        if type(s) is not int:
            raise ValueError("split set and n must be integers, got %r" % (s,))
        parts.append(s - prev)
        prev = s
    return tuple(parts)


class FundamentalTerm(_Record):
    """q^sminv-aggregated coefficient of one fundamental quasisymmetric function."""

    _fields = ("composition", "coefficient")

    def __init__(self, composition: tuple, coefficient: QPolynomial):
        object.__setattr__(self, "composition", composition)
        object.__setattr__(self, "coefficient", coefficient)

    @property
    def split(self) -> frozenset:
        return frozenset(itertools.accumulate(self.composition[:-1]))


def fundamental_expansion(n: int, k: int, l: int) -> list[FundamentalTerm]:
    """Group q^sminv over segmented permutations with k ascents, l descents by
    the composition of their split set."""
    if n > 0 and k + l >= n:
        raise ValueError("fundamental_expansion requires k+l < n")
    [groups] = stat_distributions(enumerate_words_by_stat((1,) * n, k, l), sminv_count,
                                  key=lambda sigma: composition_from_split(split_set(sigma), n))
    return [FundamentalTerm(comp, coeff) for comp, coeff in sorted(groups.items())]


def monomials_of_fundamental(split: Iterable[int], n: int, bound: int):
    """Exponent vectors (length bound) of the fundamental quasisymmetric
    function Q_{split,n} over the alphabet 1..bound."""
    split = frozenset(split)
    if not split <= frozenset(range(1, n)):  # seq[0] would read seq[-1]; seq[n] overruns
        raise ValueError("split set must lie in 1..n-1")
    for seq in itertools.combinations_with_replacement(range(1, bound + 1), n):
        if all(seq[s] > seq[s - 1] for s in split):
            yield letter_content(seq, bound)


def expand_to_monomials(terms: Sequence[FundamentalTerm],
                        alphabet_bound: int) -> dict[tuple, QPolynomial]:
    """Monomial expansion of a sum of fundamental terms over x_1..x_bound."""
    out: dict[tuple, QPolynomial] = {}
    for term in terms:
        n = sum(term.composition)
        for exps in monomials_of_fundamental(term.split, n, alphabet_bound):
            out[exps] = out.get(exps, QPolynomial.zero()) + term.coefficient
    return {e: p for e, p in out.items() if p}


def direct_monomial_sum(n: int, k: int, l: int, bound: int) -> dict[tuple, QPolynomial]:
    """Sum of q^sminv(w) x^w over all words with n letters <= bound, k ascents,
    l descents, keyed by exponent vector; computed by direct enumeration,
    independent of the expansion."""
    words = (w for w in words_of_length(n, bound)
             if len(w.ascent_positions()) == k and len(w.descent_positions()) == l)
    [out] = stat_distributions(words, sminv_count, key=lambda w: letter_content(w.letters, bound))
    return out
