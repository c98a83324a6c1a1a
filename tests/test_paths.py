"""Unit tests for decorated labelled Dyck paths, the area-0 block form, and the
insertion bijection from segmented Smirnov words."""

import itertools
import os
import re
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smirnov.paths import (AreaZeroDecoratedPath, DecoratedLabelledDyckPath, area,
                           area_word, enumerate_area0, path_dinv, phi, phi_inverse,
                           unified_dinv)
from smirnov.stats import sdinv_count
from smirnov.words import enumerate_words, extract_maximal, parse_word

from test_words import words

EMPTY_PATH = AreaZeroDecoratedPath(())


@st.composite
def area0_paths(draw, n_max=16, alphabet_max=12):
    """A valid area-0 path drawn column by column, a decorated valley allowed
    wherever it is contractible.  Small alphabets make equal labels on either
    side of a valley common."""
    alphabet = draw(st.integers(min_value=1, max_value=alphabet_max))
    columns = []
    left = draw(st.integers(min_value=0, max_value=n_max))
    while left:
        labels = sorted(draw(st.sets(st.integers(min_value=1, max_value=alphabet),
                                     min_size=1, max_size=min(left, alphabet))))
        prev = columns[-1][0] if columns else None
        contractible = prev is not None and (len(prev) >= 2 or prev[-1] < labels[0])
        columns.append((tuple(labels), contractible and draw(st.booleans())))
        left -= len(labels)
    return AreaZeroDecoratedPath(tuple(columns))


# the worked general path: area word 01112320, area 6, dinv 2
GENERAL = DecoratedLabelledDyckPath(
    steps="NNENENNNEENEEENE",
    labels=(2, 3, 4, 1, 2, 4, 3, 2),
    drise=frozenset({2, 6}),
    dvalley=frozenset({3, 7}),
)


class TestStepForm:
    def test_area_word_fixture(self):
        assert area_word(GENERAL) == (0, 1, 1, 1, 2, 3, 2, 0)
        assert area(GENERAL) == 6
        assert path_dinv(GENERAL) == 2

    def test_validation_above_diagonal(self):
        with pytest.raises(ValueError):
            DecoratedLabelledDyckPath("NEEN", (1, 2), frozenset(), frozenset())

    def test_validation_labels_increase_on_runs(self):
        with pytest.raises(ValueError):
            DecoratedLabelledDyckPath("NNEE", (2, 2), frozenset(), frozenset())
        DecoratedLabelledDyckPath("NNEE", (2, 3), frozenset(), frozenset())

    def test_validation_decorations(self):
        with pytest.raises(ValueError):
            # vertical step 1 is not preceded by another N: not a rise
            DecoratedLabelledDyckPath("NENE", (1, 1), frozenset({1}), frozenset())
        with pytest.raises(ValueError):
            # valley decoration on a non-contractible valley
            DecoratedLabelledDyckPath("NENE", (2, 1), frozenset(), frozenset({2}))
        # a smaller previous top label makes the valley contractible
        DecoratedLabelledDyckPath("NENE", (1, 2), frozenset(), frozenset({2}))

    @pytest.mark.parametrize("label", [0, -1, 1.5, "a", True])
    def test_labels_must_be_positive_integers(self, label):
        with pytest.raises(ValueError, match="^labels must be positive integers$"):
            DecoratedLabelledDyckPath("NE", (label,), (), ())

    @pytest.mark.parametrize("args, message", [
        (("NNE", (1, 2), (), ()), "path must have equally many N and E steps"),
        (("NE", (1, 2), (), ()), "expected 1 labels"),
    ])
    def test_counts_must_match(self, args, message):
        with pytest.raises(ValueError, match="^%s$" % message):
            DecoratedLabelledDyckPath(*args)

    @pytest.mark.parametrize("steps, labels, dvalley", [
        # no such vertical step
        ("NENE", (1, 2), 0), ("NENE", (1, 2), 3), ("NENE", (1, 2), 1.5),
        # vertical step 1 follows no east step; vertical step 2 of NNEE
        # follows a north step
        ("NENE", (1, 2), 1), ("NNEE", (1, 2), 2),
        # one east step after a north step with a larger label
        ("NENE", (2, 1), 2),
    ])
    def test_valley_must_be_contractible(self, steps, labels, dvalley):
        with pytest.raises(ValueError, match="^decorated valley %s is not a contractible valley$"
                           % re.escape(repr(dvalley))):
            DecoratedLabelledDyckPath(steps, labels, (), (dvalley,))

    @pytest.mark.parametrize("steps, labels, drise, dvalley", [
        # one east step after a north step with a smaller label
        ("NENE", (1, 2), (), (2,)),
        # two east steps before vertical step 3
        ("NNEENE", (1, 2, 3), (2,), (3,)),
    ])
    def test_contractible_valleys_are_accepted(self, steps, labels, drise, dvalley):
        D = DecoratedLabelledDyckPath(steps, labels, drise, dvalley)
        assert (D.drise, D.dvalley) == (frozenset(drise), frozenset(dvalley))

    @pytest.mark.parametrize("entry", [2.0, "a", True])
    def test_decorations_must_be_integers(self, entry):
        # vertical step 2 is a rise of NNEE and a contractible valley of NENE
        DecoratedLabelledDyckPath("NNEE", (1, 2), (2,), ())
        DecoratedLabelledDyckPath("NENE", (1, 2), (), (2,))
        with pytest.raises(ValueError, match="^decorated rise %r is not a rise$" % entry):
            DecoratedLabelledDyckPath("NNEE", (1, 2), (entry,), ())
        with pytest.raises(ValueError, match="^decorated valley %r is not a contractible" % entry):
            DecoratedLabelledDyckPath("NENE", (1, 2), (), (entry,))

    @pytest.mark.parametrize("field, args", [("labels", ("NE", 5, (), ())),
                                             ("drise", ("NE", (1,), 5, ())),
                                             ("dvalley", ("NE", (1,), (), 5)),
                                             ("drise", ("NNEE", (1, 2), ([2],), ()))])
    def test_arguments_must_be_collections(self, field, args):
        # field names the argument that is not a collection (or holds an
        # unhashable decoration): Python's own TypeError
        with pytest.raises(TypeError, match="^('int' object is not iterable|unhashable type)"):
            DecoratedLabelledDyckPath(*args)


    @pytest.mark.parametrize("steps", [5, ["N", "E"], ("N", "E"), b"NE", None])
    def test_steps_must_be_a_string(self, steps):
        # a list of steps used to be kept, so the path could not be hashed
        with pytest.raises(ValueError, match="^steps must be over {N, E}$"):
            DecoratedLabelledDyckPath(steps, (1,), (), ())


class TestBlockForm:
    def test_text_and_counts(self):
        D = phi(parse_word("43|1|42|421"))
        assert D.text() == "1 *2 *4 2 *4 1 3 *4"
        assert D.rise_count() == 0
        assert D.valley_count() == 4
        assert D.content() == (2, 2, 1, 3)

    def test_rise_example(self):
        D = phi(parse_word("34|1|24|124"))
        assert D.text() == "1,2,4 2,4 1 3,4"
        assert D.rise_count() == 4
        assert D.valley_count() == 0

    def test_first_column_never_decorated(self):
        with pytest.raises(ValueError):
            AreaZeroDecoratedPath((((1,), True),))

    def test_columns_strictly_increasing(self):
        with pytest.raises(ValueError):
            AreaZeroDecoratedPath((((1, 1), False),))

    def test_non_contractible_valley_rejected(self):
        # previous column has height 1 and its top label is not smaller
        with pytest.raises(ValueError):
            AreaZeroDecoratedPath((((2,), False), ((1,), True)))
        # smaller previous top label makes the valley contractible
        AreaZeroDecoratedPath((((1,), False), ((2,), True)))

    @pytest.mark.parametrize("columns,message", [
        ((((), False),), "empty column 1"),
        ((((1,), False), ((), False)), "empty column 2"),
        ((((0,), False),), "labels must be positive integers"),
        ((((2, 3), False), ((1, -1), False)), "labels must be positive integers"),
        ((((1, 1.5), False),), "labels must be positive integers"),
        ((((1,), False), (("a",), False)), "labels must be positive integers"),
        ((((1, 1), False),), "column 1 labels must strictly increase"),
        ((((1,), False), ((3, 2), False)), "column 2 labels must strictly increase"),
        ((((1,), True),), "the first column cannot be a decorated valley"),
        ((((2,), False), ((1,), True)), "decorated valley at column 2 is not contractible"),
        ((((2,), False), ((2,), True)), "decorated valley at column 2 is not contractible"),
        ((((1,), False), ((2,), False), ((2,), True)),
         "decorated valley at column 3 is not contractible"),
        # the first fault is named: every column is checked before any flag,
        # positivity before order within a column
        ((((1,), True), ((), False)), "empty column 2"),
        ((((2, 0), False),), "labels must be positive integers"),
        ((((3, 2), False), ((0,), False)), "column 1 labels must strictly increase"),
        ((((2,), False), ((1,), True), ((3, 3), False)), "column 3 labels must strictly increase"),
        ((((1,), True), ((2,), False), ((2,), True)),
         "the first column cannot be a decorated valley"),
        # bool is a subclass of int, but not a label
        ((((True, 2), False),), "labels must be positive integers"),
        # a column is a (labels, flag) pair, unpacked as Python unpacks a pair
        ((((1,),),), "not enough values to unpack (expected 2, got 1)"),
        ((("12", False),), "labels must be positive integers"),
        ((((1,), False), ((2,), False, 3)), "too many values to unpack (expected 2)"),
        ((((3, 2), False), ((1,),)), "column 1 labels must strictly increase"),
    ])
    def test_validation_messages(self, columns, message):
        with pytest.raises(ValueError) as exc:
            AreaZeroDecoratedPath(columns)
        assert str(exc.value) == message

    @pytest.mark.parametrize("columns", [5, (5,), ((5, False),)])
    def test_columns_must_be_collections(self, columns):
        # the columns, a column or its labels not a collection: Python's own TypeError
        with pytest.raises(TypeError, match="iterable"):
            AreaZeroDecoratedPath(columns)

    def test_step_form_round_trip_area_zero(self):
        D = phi(parse_word("34|1|24|124"))
        S = D.to_steps()
        assert area(S) == 0
        assert S.labels == D.labels()


class TestBijection:
    def test_round_trip_fixtures(self):
        for text in ["43|1|42|421", "34|1|24|124", "231|3212|12", "1", "21|1"]:
            w = parse_word(text)
            assert phi_inverse(phi(w)) == w

    def test_empty(self):
        assert phi(parse_word("1").__class__((), ())) == EMPTY_PATH
        assert phi_inverse(EMPTY_PATH).n == 0

    def test_unified_dinv_fixtures(self):
        assert unified_dinv(phi(parse_word("43|1|42|421"))) == sdinv_count(
            parse_word("43|1|42|421"))

    @pytest.mark.parametrize("mu", [(2, 1), (1, 1, 1), (2, 2), (3, 1), (1, 1, 2)])
    def test_bijection_exhaustive(self, mu):
        paths_seen = {}
        for w in enumerate_words(mu):
            D = phi(w)
            assert D not in paths_seen
            paths_seen[D] = w
            assert phi_inverse(D) == w
            assert D.content() == w.content()
            assert D.rise_count() == len(w.ascent_positions())
            assert D.valley_count() == len(w.descent_positions())
        assert set(paths_seen) == set(enumerate_area0(mu))

    @pytest.mark.parametrize("mu", [(2, 1), (1, 1, 1), (2, 2)])
    def test_classical_dinv_on_undecorated_families(self, mu):
        for D in enumerate_area0(mu):
            if D.rise_count() == 0 or D.valley_count() == 0:
                assert unified_dinv(D) == path_dinv(D.to_steps())

    @given(words())
    @settings(max_examples=80, deadline=None)
    def test_round_trip_property(self, w):
        D = phi(w)
        assert phi_inverse(D) == w
        assert area(D.to_steps()) == 0

    @given(words(n_max=14, alphabet=12))
    @settings(max_examples=80, deadline=None)
    def test_many_levels_property(self, w):
        D = phi(w)
        assert phi_inverse(D) == w
        assert D.rise_count() == len(w.ascent_positions())
        assert D.valley_count() == len(w.descent_positions())
        assert D.content() == w.content()

    @given(area0_paths())
    @settings(max_examples=300, deadline=None)
    def test_every_valid_path_is_an_image(self, D):
        assert phi(phi_inverse(D)) == D

    def test_deep_words_need_no_deep_stack(self):
        """phi and phi_inverse are single loops over the letters, so words
        with 300 letters and over 100 distinct ones run under a recursion
        limit of 100."""
        code = textwrap.dedent("""
            import random, sys
            from smirnov.paths import phi, phi_inverse
            from smirnov.words import SegmentedSmirnovWord
            rng = random.Random(0)
            perm = list(range(1, 301))
            rng.shuffle(perm)
            letters = [rng.randint(1, 150) for _ in range(300)]
            shape, run = [], 1
            for a, b in zip(letters, letters[1:]):
                if a == b or rng.random() < 0.3:
                    shape.append(run)
                    run = 1
                else:
                    run += 1
            shape.append(run)
            cases = [SegmentedSmirnovWord(perm, (300,)), SegmentedSmirnovWord(letters, shape)]
            sys.setrecursionlimit(100)
            for w in cases:
                assert phi_inverse(phi(w)) == w
            print(len(shape), max(shape), len(set(letters)))
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        blocks, longest, distinct = map(int, proc.stdout.split())
        assert blocks > 50 and longest > 5 and distinct > 100

    def test_wrong_roles_fail_fast(self):
        """With the RISE and FALL codes swapped, the column links of 1321
        form a cycle; phi's output walk must raise ValueError, not loop
        (in a subprocess capped in time and address space)."""
        code = textwrap.dedent("""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            import smirnov.paths as paths
            from smirnov.words import FALL, RISE, occurrence_roles, parse_word
            swap = {RISE: FALL, FALL: RISE}
            paths.occurrence_roles = lambda w: [swap.get(c, c) for c in occurrence_roles(w)]
            try:
                paths.phi(parse_word("1321"))
            except ValueError as exc:
                print(exc)
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "do not form one path" in proc.stdout


def _reference_apply_record(Dprime, rec):
    """One level of phi as first written: replay the insertions of the maximal
    letter on a validated path, regrouping its columns into blocks."""
    cols = [[list(labels), flag] for labels, flag in Dprime.columns]
    nested = []
    for col in cols:
        if col[1] and nested:
            nested[-1].append(col)
        else:
            nested.append([col])
    bp = len(nested)
    m = rec.m
    for t in rec.peaks:
        p = bp - t  # word separator t joins path blocks p, p+1
        nested[p - 1][-1][0].append(m)
        nested[p][0][1] = True
    merged = []
    for blk in nested:
        if blk[0][1] and merged:
            merged[-1].extend(blk)
        else:
            merged.append(blk)
    b1 = len(merged)
    for b in rec.rises:
        merged[b1 - b][-1][0].append(m)
    for b in rec.falls:
        merged[b1 - b].append([[m], True])
    out = []
    for gp in range(b1 + 1):  # path gap gp corresponds to word gap b1 - gp
        out.extend([[m], False] for _ in range(rec.gaps[b1 - gp]))
        if gp < b1:
            out.extend(merged[gp])
    return AreaZeroDecoratedPath(tuple((tuple(labels), flag) for labels, flag in out))


def _reference_phi(w, memo):
    """The recursive definition of phi: strip the maximal letter, map the
    rest, then insert the maximal label into the path.  memo maps words to
    their images."""
    if w not in memo:
        if w.n == 0:
            memo[w] = EMPTY_PATH
        else:
            wprime, rec = extract_maximal(w)
            memo[w] = _reference_apply_record(_reference_phi(wprime, memo), rec)
    return memo[w]


def _contents(n_max):
    """Every composition of n <= n_max, and every weak one of at most three parts."""
    for n in range(1, n_max + 1):
        for parts in range(1, n + 1):
            for mu in itertools.product(range(n + 1), repeat=parts):
                if sum(mu) == n and mu[-1] and (all(mu) or parts <= 3):
                    yield mu


class TestAgainstRecursiveDefinition:
    def test_phi_and_phi_inverse_match_the_recursion(self):
        memo = {}
        for mu in _contents(5):
            preimage = {}
            for w in enumerate_words(mu):
                D = _reference_phi(w, memo)
                assert phi(w) == D, w
                preimage[D] = w
            # every image path is enumerated once, so this also checks
            # phi_inverse(phi(w)) == w for every word
            for D in enumerate_area0(mu):
                assert phi_inverse(D) == preimage.pop(D), D
            assert not preimage
