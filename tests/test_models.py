"""Unit tests for the three classical models: 231-avoidance, noncrossing
partitions, area-0 parallelogram polyominoes, and the chromatic tallies."""

import itertools
import os
import subprocess
import sys
import textwrap

import pytest

from smirnov.models import (LabelledPolyomino, NoncrossingPartition, catalan,
                            chromatic_path_enumerator, crossing,
                            enumerate_area0_polyominoes, enumerate_noncrossing,
                            enumerate_set_partitions, is_231_avoiding,
                            noncrossing_to_permutation, permutation_to_noncrossing,
                            polyomino_to_word, single_block_words,
                            smirnov_to_polyomino)
from smirnov.qengine import QPolynomial, sf_h_coefficient
from smirnov.stats import sminv_count, stat_distributions
from smirnov.words import SegmentedSmirnovWord, enumerate_words, parse_word, partitions_of


def _reference_single_block_words(n, bound, prefix=()):
    """The recursive definition: extend the prefix by each letter that differs from its last."""
    if len(prefix) == n:
        return [prefix]
    return [word for x in range(1, bound + 1) if not prefix or prefix[-1] != x
            for word in _reference_single_block_words(n, bound, prefix + (x,))]


def _reference_set_partitions(n):
    """The recursive definition: each partition of {1..n-1} gives n as a new
    block first, then n added to each block in turn."""
    if n == 0:
        return [()]
    out = []
    for rest in _reference_set_partitions(n - 1):
        out.append(rest + ((n,),))
        out.extend(rest[:i] + (rest[i] + (n,),) + rest[i + 1:] for i in range(len(rest)))
    return out


def _reference_area0_polyominoes(width, height, bound):
    """The definition: every pair of distinct paths, upper first, that meet
    only at their ends, with the lower path weakly below and every cell between
    them labelled; each labelling filled recursively in reading order."""
    size = width + height
    paths = ["".join("N" if i in north else "E" for i in range(size))
             for north in map(set, itertools.combinations(range(size), height))]

    def vertices(path):
        points = [(0, 0)]
        for step in path:
            x, y = points[-1]
            points.append((x + (step == "E"), y + (step == "N")))
        return points

    def floor(path):  # height of the path under each column
        return [y for (x, y), step in zip(vertices(path), path) if step == "E"]

    def fill(cells, acc):
        if len(acc) == len(cells):
            return [acc]
        col, row = cells[len(acc)]
        got = dict(zip(cells, acc))
        lo = got.get((col, row - 1), 0) + 1
        hi = got.get((col - 1, row), bound + 1) - 1
        return [out for v in range(lo, hi + 1) for out in fill(cells, acc + (v,))]

    found = []
    for upper in paths:
        for lower in paths:
            if upper == lower or len(set(vertices(upper)) & set(vertices(lower))) > 2:
                continue
            tops, bottoms = floor(upper), floor(lower)
            if any(t < b for t, b in zip(tops, bottoms)):
                continue
            cells = sorted({point for point, step in zip(vertices(upper), upper) if step == "N"}
                           | {point for point, step in zip(vertices(lower), lower)
                              if step == "E"})
            if cells != [(x, y) for x in range(width) for y in range(bottoms[x], tops[x])]:
                continue
            found.extend((upper, lower, tuple((c, r, v) for (c, r), v in zip(cells, values)))
                         for values in fill(cells, ()))
    return found


def _run_with_recursion_limit_100(code):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", "import sys\nsys.setrecursionlimit(100)\n"
                           + textwrap.dedent(code)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


class TestEnumerationOrder:
    def test_single_block_words_match_the_recursive_definition(self):
        for n in range(7):
            for bound in range(5):
                expected = _reference_single_block_words(n, bound) if n else []
                assert list(single_block_words(n, bound)) == expected, (n, bound)

    def test_set_partitions_match_the_recursive_definition(self):
        for n in range(9):
            expected = _reference_set_partitions(n)
            assert list(enumerate_set_partitions(n)) == expected, n
            assert [p.blocks for p in enumerate_noncrossing(n)] == \
                [blocks for blocks in expected if not crossing(blocks)], n

    def test_area0_polyominoes_match_the_recursive_definition(self):
        for width in range(4):
            for height in range(4):
                for bound in range(width + height + 1):
                    found = [(p.upper, p.lower, p.labels)
                             for p in enumerate_area0_polyominoes(width, height, bound)]
                    assert found == _reference_area0_polyominoes(width, height, bound), \
                        (width, height, bound)

    def test_long_words_need_no_recursion(self):
        # 1200 letters deep, far past the recursion limit
        assert _run_with_recursion_limit_100("""
            from smirnov.models import single_block_words
            word = next(single_block_words(1200, 2))
            print(len(word), word == (1, 2) * 600)
        """) == ["1200", "True"]

    def test_large_set_partitions_need_no_recursion(self):
        assert _run_with_recursion_limit_100("""
            from smirnov.models import enumerate_set_partitions
            blocks = next(enumerate_set_partitions(1200))
            print(len(blocks), blocks == tuple((x,) for x in range(1, 1201)))
        """) == ["1200", "True"]


class TestAvoidance:
    def test_fixtures(self):
        assert is_231_avoiding((1, 2, 3))
        assert is_231_avoiding((3, 2, 1))
        assert not is_231_avoiding((2, 3, 1))
        assert is_231_avoiding((5, 2, 1, 4, 3))

    def test_a_mapping_is_read_by_its_keys(self):
        # indexing it raised KeyError: 1
        assert is_231_avoiding({0: 0, 2: 0}) and is_231_avoiding({1: 2, 2: 1})
        assert not is_231_avoiding({2: 0, 3: 0, 1: 0})

    def test_catalan_oracle(self):
        assert [catalan(n) for n in range(1, 9)] == [1, 2, 5, 14, 42, 132, 429, 1430]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_zero_sminv_iff_avoiding(self, n):
        count = 0
        for perm in itertools.permutations(range(1, n + 1)):
            zero = sminv_count(SegmentedSmirnovWord(perm, (n,))) == 0
            assert zero == is_231_avoiding(perm)
            count += zero
        assert count == catalan(n)


class TestNoncrossing:
    def test_worked_example(self):
        p = NoncrossingPartition(((1, 2, 5), (3, 4), (6, 8, 9), (7,)))
        assert noncrossing_to_permutation(p) == (5, 2, 1, 4, 3, 9, 8, 6, 7)
        assert permutation_to_noncrossing((5, 2, 1, 4, 3, 9, 8, 6, 7)) == p

    def test_singletons_give_identity(self):
        p = NoncrossingPartition(((1,), (2,), (3,)))
        assert noncrossing_to_permutation(p) == (1, 2, 3)

    @pytest.mark.parametrize("blocks", [((1.0,),), ((True,),), ((1, "a"),), ((2, 1), (0,))])
    def test_elements_must_be_positive_ints(self, blocks):
        with pytest.raises(ValueError, match="^block elements must be positive integers$"):
            NoncrossingPartition(blocks)

    @pytest.mark.parametrize("blocks", [5, [5]])
    def test_blocks_must_be_iterable(self, blocks):
        # blocks, or a block, that is not a collection: Python's own TypeError
        with pytest.raises(TypeError, match="^'int' object is not iterable$"):
            NoncrossingPartition(blocks)

    def test_empty_block_rejected(self):
        # it used to construct with n = 1, and noncrossing_to_permutation then failed
        with pytest.raises(ValueError, match="^empty block in noncrossing partition$"):
            NoncrossingPartition(((), (1,)))

    def test_crossing_rejected(self):
        with pytest.raises(ValueError):
            NoncrossingPartition(((1, 3), (2, 4)))
        assert crossing(((1, 3, 5), (2, 4))) == (1, 2, 3, 4)

    @pytest.mark.parametrize("blocks", [((2, 3), (1, 2)), ((1, 2, 2),), ((2,), (1,), (2,))])
    def test_crossing_rejects_a_repeated_element(self, blocks):
        with pytest.raises(ValueError, match="element 2 "):
            crossing(blocks)

    def test_enumeration_matches_the_definition(self):
        # blocks B != C cross when a < b < c < d with a, c in B and b, d in C
        for n in range(9):
            expected = {blocks for blocks in enumerate_set_partitions(n)
                        if not any(a < b < c < d
                                   for B, C in itertools.permutations(blocks, 2)
                                   for a, c in itertools.combinations(B, 2)
                                   for b, d in itertools.combinations(C, 2))}
            found = [p.blocks for p in enumerate_noncrossing(n)]
            assert len(found) == catalan(n)
            assert set(found) == expected

    def test_crossing_matches_the_definition(self):
        # every crossing a < b < c < d; crossing() returns one with the smallest c
        for n in range(9):
            for blocks in enumerate_set_partitions(n):
                block_of = {x: i for i, blk in enumerate(blocks) for x in blk}
                quadruples = [q for q in itertools.combinations(range(1, n + 1), 4)
                              if block_of[q[0]] == block_of[q[2]] != block_of[q[1]] == block_of[q[3]]]
                found = crossing(blocks)
                if not quadruples:
                    assert found == (), blocks
                else:
                    assert found in quadruples, (blocks, found)
                    assert found[2] == min(q[2] for q in quadruples), (blocks, found)

    def test_large_partitions_construct_quickly(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        code = textwrap.dedent("""
            from smirnov.models import NoncrossingPartition
            singletons = NoncrossingPartition(tuple((x,) for x in range(1, 2001)))
            nested = NoncrossingPartition(tuple((x, 4001 - x) for x in range(1, 2001)))
            print(singletons.n, nested.n)
        """)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["2000", "4000"]

    def test_empty_round_trip(self):
        empty = NoncrossingPartition(())
        assert list(enumerate_noncrossing(0)) == [empty]
        assert noncrossing_to_permutation(empty) == ()
        assert permutation_to_noncrossing(()) == empty

    def test_crossing_runs_rejected(self):
        # decreasing runs {1,3} and {2,4} cross
        with pytest.raises(ValueError):
            permutation_to_noncrossing((3, 1, 4, 2))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_counts(self, n):
        # noncrossing partitions of [n] are Catalan many
        assert sum(1 for _ in enumerate_noncrossing(n)) == catalan(n)
        # Bell numbers for all set partitions, first values
        bell = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}
        assert sum(1 for _ in enumerate_set_partitions(n)) == bell[n]


class TestPolyomino:
    def test_worked_example(self):
        w = parse_word("213532142")
        p = smirnov_to_polyomino(w)
        assert (p.width, p.height) == (6, 4)
        assert p.is_area_zero()
        assert polyomino_to_word(p) == w

    def test_requires_single_block(self):
        with pytest.raises(ValueError):
            smirnov_to_polyomino(parse_word("21|1"))

    def test_an_interior_cell_is_not_area_zero(self):
        # 2 x 2, with the cell (1, 1) between the paths and unlabelled
        p = LabelledPolyomino("NNEE", "EENN", ((0, 0, 2), (0, 1, 3), (1, 0, 1)))
        assert not p.is_area_zero()

    @pytest.mark.parametrize("n", range(1, 6))
    def test_bijection_exhaustive(self, n):
        images = {}
        for letters in single_block_words(n, n):
            w = SegmentedSmirnovWord(letters, (n,))
            p = smirnov_to_polyomino(w)
            assert p.is_area_zero()
            assert polyomino_to_word(p) == w
            k = len(w.ascent_positions())
            images.setdefault((n - k, k + 1), set()).add(p)
        for (width, height), image_set in images.items():
            assert set(enumerate_area0_polyominoes(width, height, n)) == image_set


class TestPolyominoRejection:
    def test_paths_touching_between_their_ends(self):
        with pytest.raises(ValueError, match="strictly above"):
            LabelledPolyomino("NENE", "ENEN", ((0, 0, 1), (1, 1, 1)))

    def test_paths_with_different_endpoints(self):
        with pytest.raises(ValueError, match="^paths must share their endpoints$"):
            LabelledPolyomino("NE", "NNEE", ())

    def test_lower_path_above_the_upper_path(self):
        with pytest.raises(ValueError, match="^upper path must stay above"):
            LabelledPolyomino("EN", "NE", ((0, 1, 1), (1, 0, 1)))

    def test_labels_not_covering_the_labelled_cells(self):
        with pytest.raises(ValueError, match="cover exactly"):
            LabelledPolyomino("NE", "EN", ())
        with pytest.raises(ValueError, match="cover exactly"):
            LabelledPolyomino("NE", "EN", ((0, 0, 1), (0, 1, 1)))

    @pytest.mark.parametrize("value", [0, 1.5, "a", True])
    def test_labels_must_be_positive_integers(self, value):
        with pytest.raises(ValueError, match="^labels must be positive integers$"):
            LabelledPolyomino("NE", "EN", ((0, 0, value),))

    @pytest.mark.parametrize("cell", [(0, 0), (0, 0, 1, 1), ("a", 0, 1), (0, 0.0, 1), (0, True, 1)])
    def test_labels_must_be_integer_triples(self, cell):
        with pytest.raises(ValueError, match="^each label must be a .col, row, value. triple"):
            LabelledPolyomino("NE", "EN", (cell,))
        with pytest.raises(ValueError, match="^each label must be a .col, row, value. triple"):
            LabelledPolyomino("NNE", "ENN", ((0, 0, 1), cell))

    @pytest.mark.parametrize("labels", [(5,), 5, ((0, 0, 1), 7)])
    def test_labels_must_be_iterable_triples(self, labels):
        # labels, or a label, that is not a collection: Python's own TypeError
        with pytest.raises(TypeError, match="^'int' object is not iterable$"):
            LabelledPolyomino("NE", "EN", labels)

    @pytest.mark.parametrize("upper, lower", [(5, "EN"), ("NE", 5), (["N", "E"], "EN"),
                                              ("NE", ("E", "N")), (b"NE", b"EN")])
    def test_paths_must_be_strings(self, upper, lower):
        with pytest.raises(ValueError, match="^paths must be over {N, E}$"):
            LabelledPolyomino(upper, lower, ((0, 0, 1),))

    def test_column_labels_not_increasing(self):
        LabelledPolyomino("NNE", "ENN", ((0, 0, 1), (0, 1, 2)))
        with pytest.raises(ValueError, match="column 0 labels must increase"):
            LabelledPolyomino("NNE", "ENN", ((0, 0, 2), (0, 1, 1)))

    def test_row_labels_not_decreasing(self):
        LabelledPolyomino("NEE", "EEN", ((0, 0, 2), (1, 0, 1)))
        with pytest.raises(ValueError, match="row 0 labels must decrease"):
            LabelledPolyomino("NEE", "EEN", ((0, 0, 1), (1, 0, 2)))


class TestChromatic:
    def test_tallies_match_recursion_at_q_one(self):
        n = 4
        tallies = chromatic_path_enumerator(n, n)
        for mu in partitions_of(n):
            exps = tuple(mu) + (0,) * (n - len(mu))
            [by_cell] = stat_distributions(enumerate_words(mu), sminv_count)
            for l in range(n):
                k = n - 1 - l
                got = tallies.get(l, {}).get(exps, 0)
                assert got == by_cell.get((k, l), QPolynomial.zero())(1)
                assert got == sf_h_coefficient(n, k, l, mu)(1)

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError):
            chromatic_path_enumerator(0, 3)
