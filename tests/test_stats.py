"""Unit tests for the statistics sminv, sdinv, heights, and the ordered
multiset partition statistics inv and dinv."""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smirnov.stats import (OrderedMultisetPartition, enumerate_omp, height_array,
                           omp_dinv, omp_inv, project, sdinv, sdinv_count,
                           sminv, sminv_count)
from smirnov.words import (EMPTY_WORD, SegmentedSmirnovWord, classify,
                           enumerate_words, parse_word)

from test_words import words

W = parse_word("231|3212|12")


class TestSminv:
    def test_worked_example_count_and_pairs(self):
        report = sminv(W)
        assert report.count == 8
        assert report.pair_set() == frozenset(
            {(1, 3), (1, 6), (1, 8), (2, 5), (2, 8), (4, 8), (5, 8), (7, 8)})

    def test_case_tags(self):
        tags = {(i, j): t for i, j, t in sminv(W).pairs}
        assert "2" in tags[(1, 3)]     # preceded by the larger 3
        assert "4" in tags[(1, 6)]     # w_4 > w_5 = w_1
        assert "1" in tags[(1, 8)]     # position 8 is initial
        assert "3" in tags[(2, 5)]     # w_4 = 3 = w_2 and 4 is initial

    def test_pairs_counted_once(self):
        for w in enumerate_words((2, 2)):
            report = sminv(w)
            assert len(report.pairs) == len(report.pair_set())

    def test_zero_on_increasing(self):
        assert sminv_count(parse_word("123")) == 0
        assert sminv_count(parse_word("1|2|3")) == 0
        # an initial smaller letter after a larger one is a case-1 inversion
        assert sminv_count(parse_word("123|12")) == 2

    @pytest.mark.parametrize("n", range(1, 6))
    def test_extended_231_oracle_on_permutations(self, n):
        # for distinct letters, sminv counts patterns a_j < a_i < a_{j-1}
        # (i < j-1) in the infinity-padded word
        for w in enumerate_words((1,) * n):
            padded = []
            for block in w.blocks:
                padded.append(math.inf)
                padded.extend(block)
            padded.append(math.inf)
            pattern = 0
            idx = [p for p, x in enumerate(padded) if x is not math.inf]
            for a, i in enumerate(idx):
                for b, j in enumerate(idx):
                    if a < b and i < j - 1 and padded[j] < padded[i] < padded[j - 1]:
                        pattern += 1
            assert sminv_count(w) == pattern, w

    @given(words())
    @settings(max_examples=80, deadline=None)
    def test_pairs_are_strict_inversions(self, w):
        for i, j, _ in sminv(w).pairs:
            assert i < j
            assert w.letters[i - 1] > w.letters[j - 1]


class TestHeights:
    def test_height_tables(self):
        # worked tables for the example word at m = 3 and m = 1
        assert height_array(W, 3) == (0, 1, 1, 0, 0, 1, 2, 0, 1)
        assert height_array(W, 1) == (0, 0, 0, 0, 0, 0, 0, 0, 0)

    @given(words())
    @settings(max_examples=60, deadline=None)
    def test_height_vanishes_at_initial_positions(self, w):
        for m in range(1, max(w.letters) + 2):
            arr = height_array(w, m)
            for i in w.initial_positions:
                assert arr[i - 1] == 0


class TestSdinv:
    def test_worked_example(self):
        report = sdinv(W)
        assert report.count == 10
        assert report.pair_set() == frozenset(
            {(1, 3), (1, 6), (1, 8), (2, 5), (2, 8), (4, 8), (5, 8),
             (7, 3), (9, 3), (9, 6)})

    def test_non_double_rise_pairs_match_sminv(self):
        # for i a peak, valley, or double fall, the sdinv pairs starting at i
        # are exactly the sminv pairs starting at i
        for mu in [(2, 2), (1, 1, 1, 1), (3, 1), (2, 1, 1)]:
            for w in enumerate_words(mu):
                roles = classify(w).roles
                smi = sminv(w).pair_set()
                sdi = sdinv(w).pair_set()
                for i in range(1, w.n + 1):
                    if roles[i - 1] != "double_rise":
                        assert ({p for p in smi if p[0] == i}
                                == {p for p in sdi if p[0] == i}), w

    @given(words())
    @settings(max_examples=80, deadline=None)
    def test_pairs_are_inversions(self, w):
        for i, j, _ in sdinv(w).pairs:
            assert i != j
            assert w.letters[i - 1] > w.letters[j - 1]


def _weak_compositions(n_max):
    """Every weak composition of n <= n_max with at most n parts, last part nonzero."""
    for n in range(n_max + 1):
        for parts in range(n + 1):
            for mu in itertools.product(range(n + 1), repeat=parts):
                if sum(mu) == n and (not mu or mu[-1]):
                    yield mu


class TestCountKernels:
    """sminv_count and sdinv_count build no report; the tagged reports are their oracle."""

    def test_match_the_reports_on_every_small_word(self):
        for mu in _weak_compositions(5):
            for w in enumerate_words(mu):
                assert sminv_count(w) == sminv(w).count, w
                assert sdinv_count(w) == sdinv(w).count, w

    @given(words(n_max=16, alphabet=12))
    @settings(max_examples=300, deadline=None)
    def test_match_the_reports_on_long_words(self, w):
        assert sminv_count(w) == sminv(w).count
        assert sdinv_count(w) == sdinv(w).count

    def test_empty_word(self):
        assert sminv_count(EMPTY_WORD) == 0
        assert sdinv_count(EMPTY_WORD) == 0


class TestOrderedMultisetPartitions:
    def test_projection(self):
        p = project(parse_word("231|3212|1212"))
        assert p.blocks == ((1, 2, 3), (1, 2, 2, 3), (1, 1, 2, 2))

    def test_set_blocks_required(self):
        p = project(parse_word("231|3212|1212"))
        with pytest.raises(ValueError):
            omp_inv(p)
        with pytest.raises(ValueError):
            omp_dinv(p)

    def test_inv_fixtures(self):
        assert omp_inv(OrderedMultisetPartition(((2,), (1,)))) == 1
        assert omp_inv(OrderedMultisetPartition(((1, 2, 3),))) == 0
        p = project(parse_word("43|1|42|421"))
        assert omp_inv(p) == sminv_count(parse_word("43|1|42|421"))

    def test_dinv_fixtures(self):
        assert omp_dinv(OrderedMultisetPartition(((2,), (1,)))) == 1
        assert omp_dinv(OrderedMultisetPartition(((1,), (2,)))) == 0
        assert omp_dinv(OrderedMultisetPartition(((1, 2, 3),))) == 0

    def test_enumerate_omp_counts(self):
        # ordered set partitions of {1,2,3} into 2 blocks: 6 of them
        assert len(list(enumerate_omp((1, 1, 1), 2))) == 6
        # repeated letters may not share a block
        for p in enumerate_omp((2, 1)):
            for block in p.blocks:
                assert len(set(block)) == len(block)

    @pytest.mark.parametrize("mu,k", [((1, 1, 1), 1), ((2, 1), 0), ((2, 2), 1)])
    def test_projection_sends_sminv_to_inv(self, mu, k):
        n = sum(mu)
        seen = set()
        for w in enumerate_words(mu):
            if len(w.descent_positions()) or len(w.ascent_positions()) != k:
                continue
            p = project(w)
            assert sminv_count(w) == omp_inv(p)
            assert sdinv_count(w) == omp_dinv(p)
            seen.add(p.blocks)
        assert seen == {p.blocks for p in enumerate_omp(mu, n - k)}
