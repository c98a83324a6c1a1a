"""Unit tests for the statistics sminv, sdinv, heights, and the ordered
multiset partition statistics inv and dinv."""

import math

import pytest
from hypothesis import given, settings

from smirnov.stats import (OrderedMultisetPartition, omp_dinv, omp_inv, project, sdinv,
                           sdinv_count, sminv, sminv_count)
from smirnov.words import (EMPTY_WORD, PEAK, classify, enumerate_words, occurrence_roles,
                           parse_word, set_sequences, words_of_length)

from test_words import initial_positions, words


def height_array(w, m):
    """height_m at every position: letters < m since the nearest left barrier
    (block start or a letter > m)."""
    letters = w.letters
    initial = initial_positions(w)
    heights = []
    run = 0
    for i in range(1, w.n + 1):
        if i in initial or letters[i - 2] > m:
            run = 0
        heights.append(run)
        if letters[i - 1] < m:
            run += 1
        elif letters[i - 1] > m:
            run = 0
        # letters equal to m neither count nor reset
    return tuple(heights)


def sminv_oracle(w):
    """The sminv pairs, transcribed from the four cases pair by pair: i < j
    with w_i > w_j and (1) j initial; (2) w_{j-1} > w_i; (3) i != j-1 and
    w_{j-1} = w_i with j-1 initial; (4) i != j-1 and w_{j-2} > w_{j-1} = w_i."""
    letters = w.letters
    n = w.n
    initial = initial_positions(w)
    pairs = []
    for i in range(1, n + 1):
        wi = letters[i - 1]
        for j in range(i + 1, n + 1):
            if wi <= letters[j - 1]:
                continue
            tags = []
            if j in initial:
                tags.append("1")
            if j >= 2 and letters[j - 2] > wi:
                tags.append("2")
            if i != j - 1 and j >= 2 and letters[j - 2] == wi:
                if (j - 1) in initial:
                    tags.append("3")
                if j >= 3 and letters[j - 3] > letters[j - 2]:
                    tags.append("4")
            if tags:
                pairs.append((i, j, tuple(tags)))
    return tuple(pairs)


def sdinv_oracle(w):
    """The sdinv pairs, transcribed from the definition pair by pair: a peak i
    has its sminv pairs; any other i pairs with j when w_i > w_j and either
    i < j at equal height_{w_i} (j = i + 1 only if j is initial) or i > j + 1
    one step higher."""
    letters = w.letters
    n = w.n
    roles = occurrence_roles(w)
    initial = initial_positions(w)
    sm_pairs = {}
    for i, j, tags in sminv_oracle(w):
        sm_pairs.setdefault(i, []).append(j)
    heights = {m: height_array(w, m) for m in set(letters)}
    pairs = []
    for i in range(1, n + 1):
        wi = letters[i - 1]
        if roles[i - 1] == PEAK:
            for j in sm_pairs.get(i, ()):
                pairs.append((i, j, ("peak",)))
            continue
        h = heights[wi]
        hi = h[i - 1]
        for j in range(1, n + 1):
            if wi <= letters[j - 1]:
                continue
            if i < j:
                if h[j - 1] == hi and (j != i + 1 or j in initial):
                    pairs.append((i, j, ("right",)))
            elif i > j + 1:
                if hi == h[j - 1] + 1:
                    pairs.append((i, j, ("left",)))
    return tuple(pairs)


@pytest.fixture(scope="module")
def small_words():
    """(w, sminv_oracle(w), sdinv_oracle(w)) for every word of
    words_of_length(n, n) with n <= 5."""
    return [(w, sminv_oracle(w), sdinv_oracle(w))
            for n in range(6) for w in words_of_length(n, n)]


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
            for i in initial_positions(w):
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


class TestOracles:
    """The tagged reports equal the oracles exactly: pairs, order and tags."""

    def test_every_small_word(self, small_words):
        assert len(small_words) == 34260
        for w, sm, sd in small_words:
            assert sminv(w).pairs == sm, w
            assert sdinv(w).pairs == sd, w

    @given(words(n_max=16, alphabet=12))
    @settings(max_examples=300, deadline=None)
    def test_long_words(self, w):
        assert sminv(w).pairs == sminv_oracle(w)
        assert sdinv(w).pairs == sdinv_oracle(w)


class TestCountKernels:
    """sminv_count and sdinv_count build no report; sminv_oracle and
    sdinv_oracle are their oracle."""

    def test_match_the_oracles_on_every_small_word(self, small_words):
        for w, sm, sd in small_words:
            assert sminv_count(w) == len(sm), w
            assert sdinv_count(w) == len(sd), w

    @given(words(n_max=16, alphabet=12))
    @settings(max_examples=300, deadline=None)
    def test_match_the_oracles_on_long_words(self, w):
        assert sminv_count(w) == len(sminv_oracle(w))
        assert sdinv_count(w) == len(sdinv_oracle(w))

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

    @pytest.mark.parametrize("blocks", [((1.5,),), (("a", "b"),), ((1, True),)])
    def test_elements_must_be_positive_integers(self, blocks):
        with pytest.raises(ValueError, match="^block elements must be positive integers$"):
            OrderedMultisetPartition(blocks)

    @pytest.mark.parametrize("blocks", [5, [5]])
    def test_blocks_must_be_iterable(self, blocks):
        with pytest.raises(ValueError) as exc:
            OrderedMultisetPartition(blocks)
        assert str(exc.value) == ("blocks must be a collection of blocks of positive integers, "
                                  "got %r" % (blocks,))

    def test_inv_fixtures(self):
        assert omp_inv(OrderedMultisetPartition(((2,), (1,)))) == 1
        assert omp_inv(OrderedMultisetPartition(((1, 2, 3),))) == 0
        p = project(parse_word("43|1|42|421"))
        assert omp_inv(p) == sminv_count(parse_word("43|1|42|421"))

    def test_dinv_fixtures(self):
        assert omp_dinv(OrderedMultisetPartition(((2,), (1,)))) == 1
        assert omp_dinv(OrderedMultisetPartition(((1,), (2,)))) == 0
        assert omp_dinv(OrderedMultisetPartition(((1, 2, 3),))) == 0

    def test_ordered_set_partition_counts(self):
        # ordered set partitions of {1,2,3} into 2 blocks: 6 of them
        assert sum(len(blocks) == 2 for blocks in set_sequences((1, 1, 1))) == 6
        # repeated letters may not share a block
        for blocks in set_sequences((2, 1)):
            for block in blocks:
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
        assert seen == {blocks for blocks in set_sequences(mu) if len(blocks) == n - k}
