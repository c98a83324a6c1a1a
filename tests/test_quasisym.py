"""Unit tests for standardization, split sets, and the fundamental
quasisymmetric expansion of the standard-word enumerator."""

from collections import Counter

import pytest
from hypothesis import given, settings

from smirnov.qengine import QPolynomial, cells, standard_q_count
from smirnov.quasisym import (direct_monomial_sum, expand_to_monomials, fiber_condition,
                              fundamental_expansion, split_set, standardize)
from smirnov.stats import sminv_count
from smirnov.words import enumerate_words, parse_word, words_of_length

from test_words import words


class TestStandardize:
    def test_worked_example(self):
        w = parse_word("121|31|2132")
        assert standardize(w).text() == "152|93|6487"

    def test_fixed_on_segmented_permutations(self):
        for sigma in enumerate_words((1, 1, 1)):
            assert standardize(sigma) == sigma

    @given(words())
    @settings(max_examples=80, deadline=None)
    def test_preserves_shape_and_statistics(self, w):
        from smirnov.stats import sminv

        sigma = standardize(w)
        assert sorted(sigma.letters) == list(range(1, w.n + 1))
        assert sigma.shape == w.shape
        assert sigma.ascent_positions() == w.ascent_positions()
        assert sigma.descent_positions() == w.descent_positions()
        assert sminv(sigma).pair_set() == sminv(w).pair_set()

    @given(words())
    @settings(max_examples=60, deadline=None)
    def test_standardization_is_in_its_own_fiber(self, w):
        assert fiber_condition(standardize(w), w)


def _split_by_definition(sigma):
    """The four cases of the split_set docstring read literally, with each
    position's block read off the shape."""
    block = [b for b, part in enumerate(sigma.shape) for _ in range(part)]
    letters = sigma.letters
    thick = {i for i in range(1, sigma.n + 1)
             if i == 1 or block[i - 1] != block[i - 2] or letters[i - 2] > letters[i - 1]}
    pos = {v: i for i, v in enumerate(letters, start=1)}
    out = set()
    for v in range(1, sigma.n):
        i, j = pos[v], pos[v + 1]
        if (block[i - 1] == block[j - 1] and abs(i - j) == 1
                or i in thick and j not in thick
                or i not in thick and j not in thick and i < j
                or i in thick and j in thick and j < i):
            out.add(v)
    return frozenset(out)


class TestSplit:
    def test_worked_example(self):
        sigma = parse_word("152|93|6487")
        assert split_set(sigma) == frozenset({4, 7})

    def test_requires_permutation(self):
        with pytest.raises(ValueError):
            split_set(parse_word("121"))

    @pytest.mark.parametrize("n", range(6))
    def test_matches_its_definition(self, n):
        for sigma in enumerate_words((1,) * n):
            assert split_set(sigma) == _split_by_definition(sigma), sigma


class TestExpansion:
    @pytest.mark.parametrize("n,k,l", [(1, 0, 0), (2, 0, 0), (2, 1, 0), (3, 1, 1),
                                       (4, 1, 1), (4, 2, 1)])
    def test_matches_direct_enumeration(self, n, k, l):
        terms = fundamental_expansion(n, k, l)
        for bound in range(1, n + 1):
            assert expand_to_monomials(terms, bound) == direct_monomial_sum(n, k, l, bound)

    def test_coefficients_sum_to_standard_count(self):
        n, k, l = 4, 1, 1
        total = QPolynomial.zero()
        for coeff in fundamental_expansion(n, k, l).values():
            total = total + coeff
        assert total == standard_q_count(n, k, l)

    def test_rejects_too_many_marks(self):
        with pytest.raises(ValueError):
            fundamental_expansion(3, 2, 1)


def _histogram(poly):
    """The Counter {v: c} of the terms c q^v of a QPolynomial."""
    return Counter({v: c for v, c in enumerate(poly.coeffs) if c})


def _per_word_sums(words, k, l, key):
    """The sminv histogram of each key(w) over the words with k ascents and l
    descents, tallied one word at a time."""
    sums = {}
    for w in words:
        if len(w.ascent_positions()) == k and len(w.descent_positions()) == l:
            sums.setdefault(key(w), Counter())[sminv_count(w)] += 1
    return sums


class TestKeyedEnumerators:
    """Both sides of the monomial check group q^sminv by a key; each is
    compared here with a per-word tally that spells its key out."""

    @pytest.mark.parametrize("n", range(5))
    def test_fundamental_expansion_groups_by_composition(self, n):
        def composition(sigma):  # the composition of 0 is ()
            cuts = sorted(split_set(sigma))
            return tuple(b - a for a, b in zip([0] + cuts, cuts + [n]) if n)
        sigmas = list(enumerate_words((1,) * n))
        for k, l in cells(n):
            expected = _per_word_sums(sigmas, k, l, composition)
            got = {alpha: _histogram(coeff)
                   for alpha, coeff in fundamental_expansion(n, k, l).items()}
            assert got == expected, (k, l)
            assert list(got) == sorted(got)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_direct_monomial_sum_groups_by_exponent_vector(self, n):
        for bound in range(1, n + 1):
            words = list(words_of_length(n, bound))
            for k, l in cells(n):
                expected = _per_word_sums(
                    words, k, l,
                    lambda w: tuple(w.letters.count(x) for x in range(1, bound + 1)))
                got = {e: _histogram(p) for e, p in direct_monomial_sum(n, k, l, bound).items()}
                assert got == expected, (bound, k, l)

