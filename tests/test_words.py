"""Unit tests for segmented Smirnov words: parsing, classification, enumeration,
and the maximal-letter insertion/extraction machinery."""

import ast
import itertools
import math
import os
import pathlib
import re
import subprocess
import sys
import textwrap

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import smirnov
from smirnov.quasisym import standardize
from smirnov.words import (EMPTY_WORD, InsertionRecord, SegmentedSmirnovWord, classify,
                           enumerate_words, enumerate_words_by_stat, extract_maximal,
                           insert_many, letter_content, parse_word, partitions_of,
                           set_sequences, words_of_length)


@st.composite
def words(draw, n_max=8, alphabet=4):
    n = draw(st.integers(min_value=1, max_value=n_max))
    while True:
        letters = tuple(draw(st.integers(min_value=1, max_value=alphabet))
                        for _ in range(n))
        cuts = sorted(draw(st.sets(st.integers(min_value=1, max_value=n - 1))) if n > 1
                      else set())
        shape = tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))
        try:
            return SegmentedSmirnovWord(letters, shape)
        except ValueError:
            n = draw(st.integers(min_value=1, max_value=n_max))


def initial_positions(w):
    """1-based positions that start a block, read from the shape."""
    return frozenset(itertools.accumulate(w.shape, initial=1)) - {w.n + 1}


def _parse_word_reference(text):
    """parse_word with every chunk read token by token."""
    if text == "":
        raise ValueError("empty word text (construct the empty word directly)")
    letters, shape = [], []
    for block_no, chunk in enumerate(text.split("|"), start=1):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty block at block index %d" % block_no)
        tokens = [t.strip() for t in chunk.split(",")] if "," in chunk else list(chunk)
        block = []
        for tok in tokens:
            if not (tok.isascii() and tok.isdigit()) or int(tok) < 1:
                raise ValueError("bad letter %r in block %d" % (tok, block_no))
            block.append(int(tok))
        letters.extend(block)
        shape.append(len(block))
    return SegmentedSmirnovWord(tuple(letters), tuple(shape))


def _text_reference(w):
    """text() with commas exactly when some letter exceeds 9."""
    sep = "" if all(letter <= 9 for letter in w.letters) else ","
    return "|".join(sep.join(str(letter) for letter in block) for block in w.blocks)


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return "ValueError: %s" % exc


class TestConstruction:
    def test_worked_example_word(self):
        w = parse_word("231|3212|12")
        assert w.letters == (2, 3, 1, 3, 2, 1, 2, 1, 2)
        assert w.shape == (3, 4, 2)
        assert w.blocks == ((2, 3, 1), (3, 2, 1, 2), (1, 2))
        assert w.content() == (3, 4, 2)
        assert w.text() == "231|3212|12"
        assert w.final_positions == frozenset({3, 7, 9})
        assert w.ascent_positions() == frozenset({1, 6, 8})
        assert w.descent_positions() == frozenset({2, 4, 5})

    def test_equal_letters_may_touch_across_blocks(self):
        w = parse_word("12|21")
        assert w.shape == (2, 2)

    def test_smirnov_violation_reports_index(self):
        with pytest.raises(ValueError, match="word index 1"):
            SegmentedSmirnovWord((1, 1, 2), (3,))

    def test_shape_sum_mismatch(self):
        with pytest.raises(ValueError, match="does not sum"):
            SegmentedSmirnovWord((1, 2), (3,))

    def test_bad_letters_and_shape_parts(self):
        with pytest.raises(ValueError):
            SegmentedSmirnovWord((0, 1), (2,))
        with pytest.raises(ValueError):
            SegmentedSmirnovWord((1,), (0, 1))

    @pytest.mark.parametrize("letters,shape,message", [
        ((1,), (0, 1), "shape parts must be positive integers, got 0"),
        ((1,), (1.0,), "shape parts must be positive integers, got 1.0"),
        ((1, 2), (3,), "shape (3,) does not sum to letter count 2"),
        ((0, 1), (2,), "letter at index 1 must be a positive integer, got 0"),
        ((1, "2"), (2,), "letter at index 2 must be a positive integer, got '2'"),
        ((1, 1, 2), (3,),
         "Smirnov violation: equal adjacent letters at in-block index 1 (word index 1)"),
        ((1, 2, 3, 3), (2, 2),
         "Smirnov violation: equal adjacent letters at in-block index 1 (word index 3)"),
        # the first fault is named: shape parts, then the sum, then each
        # letter, then the Smirnov condition
        ((1, 1), (0, 2), "shape parts must be positive integers, got 0"),
        ((1,), (2, -1), "shape parts must be positive integers, got -1"),
        ((0, 0), (1,), "shape (1,) does not sum to letter count 2"),
        ((1, 1, 0), (3,), "letter at index 3 must be a positive integer, got 0"),
        # bool is a subclass of int, but neither a letter nor a part
        ((True, 2), (2,), "letter at index 1 must be a positive integer, got True"),
        ((1, 2), (True, True), "shape parts must be positive integers, got True"),
    ])
    def test_validation_messages(self, letters, shape, message):
        with pytest.raises(ValueError) as exc:
            SegmentedSmirnovWord(letters, shape)
        assert str(exc.value) == message

    def test_empty_word(self):
        assert EMPTY_WORD.n == 0
        assert EMPTY_WORD.content() == ()
        assert EMPTY_WORD.text() == ""

    def test_multidigit_text_uses_commas(self):
        w = SegmentedSmirnovWord((10, 2), (2,))
        assert w.text() == "10,2"
        assert parse_word("10,2") == w

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_word("")
        with pytest.raises(ValueError):
            parse_word("12||3")
        with pytest.raises(ValueError):
            parse_word("1a2")

    @pytest.mark.parametrize("text,letter", [("١٢", "١"), ("²", "²"), ("1,٣", "٣")])
    def test_only_ascii_digits_are_letters(self, text, letter):
        # str.isdigit() also accepts Arabic-Indic digits and superscripts
        with pytest.raises(ValueError, match="bad letter %r in block 1" % letter):
            parse_word(text)

    @given(st.text(alphabet="0123456789|, \u00b2\u0663a", max_size=14))
    @example("10")
    @example("2|30,1")
    @settings(max_examples=300, deadline=None)
    def test_parse_word_matches_the_token_loop(self, text):
        assert _outcome(parse_word, text) == _outcome(_parse_word_reference, text)

    @given(words(n_max=16, alphabet=12))
    @settings(max_examples=150, deadline=None)
    def test_text_matches_its_definition(self, w):
        assert w.text() == _text_reference(w)


class TestClassify:
    def test_worked_example_roles(self):
        w = parse_word("231|3212|12")
        profile = classify(w)
        # a(w) pads every block with infinity on both sides
        assert profile.roles == ("valley", "peak", "valley",
                                 "double_fall", "double_fall", "valley", "double_rise",
                                 "valley", "double_rise")
        assert profile.ascents == w.ascent_positions()
        assert profile.descents == w.descent_positions()

    @given(words())
    @settings(max_examples=60, deadline=None)
    def test_role_counts_match_block_count(self, w):
        profile = classify(w)
        peaks = sum(1 for r in profile.roles if r == "peak")
        valleys = sum(1 for r in profile.roles if r == "valley")
        # each block alternates valley/peak runs: one more valley than peaks
        assert valleys - peaks == len(w.shape)
        assert len(profile.roles) == w.n


def _reference_roles(w):
    """Roles read in a(w) = inf w^1 inf w^2 inf ... inf, every block padded
    with infinity on both sides."""
    padded = []
    for block in w.blocks:
        padded.append(math.inf)
        padded.extend(block)
    padded.append(math.inf)
    roles = []
    for p in range(1, len(padded) - 1):
        left, mid, right = padded[p - 1], padded[p], padded[p + 1]
        if mid is math.inf:
            continue
        if left > mid < right:
            roles.append("valley")
        elif left < mid > right:
            roles.append("peak")
        elif left < mid:
            roles.append("double_rise")
        else:
            roles.append("double_fall")
    return tuple(roles)


def _reference_thick(w):
    """1-based i that start a block or follow a larger letter."""
    initial = initial_positions(w)
    return frozenset(i for i in range(1, w.n + 1)
                     if i in initial or w.letters[i - 2] > w.letters[i - 1])


def _reference_standardize(w):
    """The letters of standardize(w), relabelled by the reading order: smaller
    values first; for each value, the thin occurrences right to left, then the
    thick ones left to right."""
    thick = _reference_thick(w)
    order = []
    for m in sorted(set(w.letters)):
        at = [i for i in range(1, w.n + 1) if w.letters[i - 1] == m]
        order += [i for i in reversed(at) if i not in thick]
        order += [i for i in at if i in thick]
    sigma = [0] * w.n
    for rank, i in enumerate(order, start=1):
        sigma[i - 1] = rank
    return tuple(sigma)


class TestOccurrenceRoles:
    """classify and standardize read one role function; both are checked
    against their definitions."""

    def test_every_short_word_matches_the_definitions(self):
        for n in range(6):
            for w in words_of_length(n, n):
                assert classify(w).roles == _reference_roles(w), w
                assert standardize(w).letters == _reference_standardize(w), w

    @given(words(n_max=12, alphabet=6))
    @settings(max_examples=200, deadline=None)
    def test_random_words_match_the_definitions(self, w):
        assert classify(w).roles == _reference_roles(w)
        assert standardize(w).letters == _reference_standardize(w)


class TestEnumeration:
    def test_partitions(self):
        assert list(partitions_of(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        assert list(partitions_of(0)) == [()]

    def test_sw_21_exact(self):
        texts = sorted(w.text() for w in enumerate_words((2, 1)))
        assert texts == sorted(
            ["121", "1|12", "1|21", "12|1", "21|1", "1|1|2", "1|2|1", "2|1|1"])

    def test_letter_content_over_a_bound(self):
        assert letter_content((3, 1, 3)) == (1, 0, 2)
        assert letter_content((3, 1, 3), 3) == (1, 0, 2)
        assert letter_content((3, 1, 3), 5) == (1, 0, 2, 0, 0)
        assert letter_content((), 2) == (0, 0)
        for letters in itertools.product(range(1, 4), repeat=3):
            assert letter_content(letters, max(letters)) == letter_content(letters)

    def test_trailing_zeros_trimmed(self):
        assert list(enumerate_words((2, 1, 0))) == list(enumerate_words((2, 1)))

    @pytest.mark.parametrize("mu", [(1.5,), (1.0, 1.0), (True, True), ("1",), (2, 0.0), (1, -1)])
    def test_content_parts_must_be_ints(self, mu):
        with pytest.raises(ValueError, match="^content parts must be nonnegative$"):
            list(enumerate_words(mu))

    def test_by_stat_partition(self):
        mu = (2, 2)
        all_words = set(enumerate_words(mu))
        n = sum(mu)
        seen = set()
        for k in range(n):
            for l in range(n - k):
                chunk = set(enumerate_words_by_stat(mu, k, l))
                assert not (chunk & seen)
                seen |= chunk
        assert seen == all_words

    def test_block_count_identity(self):
        for w in enumerate_words((2, 1, 1)):
            k = len(w.ascent_positions())
            l = len(w.descent_positions())
            assert len(w.shape) == w.n - k - l


def _brute_force(letter_sequences, n):
    """Every (letters, composition) pair kept by the validating constructor, in
    lexicographic order of letters then shape."""
    shapes = sorted(tuple(b - a for a, b in zip((0,) + cuts, cuts + (n,)))
                    for r in range(n) for cuts in itertools.combinations(range(1, n), r))
    out = []
    for letters in letter_sequences:
        for shape in shapes or [()]:
            try:
                out.append(SegmentedSmirnovWord(letters, shape))
            except ValueError:
                continue
    return out


class TestDirectGenerator:
    """The direct generators against naive generate-and-filter enumeration."""

    def test_enumerate_words_matches_brute_force(self):
        contents = set()
        for n in range(7):
            # every composition, and every weak composition with at most three parts
            for length in range(n + 1):
                contents.update(mu for mu in itertools.product(range(1, n + 1), repeat=length)
                                if sum(mu) == n)
            for length in range(1, 4):
                contents.update(mu for mu in itertools.product(range(n + 1), repeat=length)
                                if sum(mu) == n)
        assert (0, 2, 1) in contents and (1, 0, 0) in contents and (1,) * 6 in contents
        for mu in sorted(contents):
            multiset = [v for v, c in enumerate(mu, start=1) for _ in range(c)]
            arrangements = sorted(set(itertools.permutations(multiset)))
            assert list(enumerate_words(mu)) == _brute_force(arrangements, sum(mu)), mu

    def test_words_of_length_matches_brute_force(self):
        for n in range(6):
            for bound in range(1, 5):
                letters = itertools.product(range(1, bound + 1), repeat=n)
                assert list(words_of_length(n, bound)) == _brute_force(letters, n), (n, bound)

    def test_import_leaves_sympy_unloaded(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(smirnov.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = ("import sys, smirnov; "
                "loaded = [m for m in sys.modules if m.split('.')[0] == 'sympy']; "
                "assert not loaded, loaded")
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr


def _reference_partitions(n, cap=None):
    """The recursive definition: each first part from the largest allowed down,
    followed by every partition of the rest into parts no larger."""
    if n == 0:
        return [()]
    cap = n if cap is None else cap
    return [(part,) + rest for part in range(min(n, cap), 0, -1)
            for rest in _reference_partitions(n - part, part)]


class TestDepthFirst:
    def test_partitions_match_the_recursive_definition(self):
        for n in range(13):
            assert list(partitions_of(n)) == _reference_partitions(n), n

    def test_no_function_calls_itself(self):
        # a call of a function's own name, bare or on self/cls, is recursion
        found = []
        for path in sorted(pathlib.Path(smirnov.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for fn in ast.walk(tree):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                for call in ast.walk(fn):
                    if not isinstance(call, ast.Call):
                        continue
                    f = call.func
                    if (isinstance(f, ast.Name) and f.id == fn.name
                            or isinstance(f, ast.Attribute) and f.attr == fn.name
                            and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")):
                        found.append("%s:%d %s" % (path.name, call.lineno, fn.name))
        assert not found, found

    def test_no_module_imports_a_name_it_never_reads(self):
        # __init__.py imports to re-export; every other module reads what it imports
        found = []
        for path in sorted(pathlib.Path(smirnov.__file__).parent.glob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            imported = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        imported[alias.asname or alias.name.split(".")[0]] = node.lineno
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    for alias in node.names:
                        imported[alias.asname or alias.name] = node.lineno
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            found.extend("%s:%d %s" % (path.name, line, name)
                         for name, line in imported.items() if name not in read)
        assert not found, found

    def test_every_public_definition_is_read_outside_the_tests(self):
        # a public function, class, method or property that only tests call is
        # dead weight; click commands are reached through their decorator
        package = pathlib.Path(smirnov.__file__).parent
        root = pathlib.Path(__file__).resolve().parents[1]
        trees = {path: ast.parse(path.read_text(), filename=str(path))
                 for path in sorted(package.glob("*.py")) + sorted(root.glob("scripts/*.py"))
                 + sorted(root.glob("bench/*.py"))}
        read = set()
        for tree in trees.values():
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.alias):
                    read.add(node.name.split(".")[-1])
        found = []
        for path in sorted(package.glob("*.py")):
            body = list(trees[path].body)
            body += [node for cls in body if isinstance(cls, ast.ClassDef) for node in cls.body]
            for node in body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                        and not node.name.startswith("_") and node.name not in read
                        and not any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
                                    and d.func.attr == "command" for d in node.decorator_list)):
                    found.append("%s:%d %s" % (path.name, node.lineno, node.name))
        assert not found, found

    def test_import_graph(self):
        # the package modules each module imports: words, then qengine, then
        # stats, then paths, quasisym and models; verify, cli and __init__ may
        # import any.  A function body imports no package module.
        graph = {"words": set(), "qengine": set(), "stats": {"words", "qengine"},
                 "paths": {"words", "stats"}, "quasisym": {"words", "stats", "qengine"},
                 "models": {"words"}, "verify": None, "cli": None, "__init__": None}
        found = []
        for path in sorted(pathlib.Path(smirnov.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            top, local = set(), set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    module = node.module or ""
                    if not node.level:
                        if module.split(".")[0] != "smirnov":
                            continue
                        module = module[len("smirnov."):]
                    names = ([module.split(".")[0]] if module
                             else [alias.name for alias in node.names])
                elif isinstance(node, ast.Import):
                    names = [alias.name.split(".")[1] for alias in node.names
                             if alias.name.startswith("smirnov.")]
                else:
                    continue
                (top if node in tree.body else local).update(names)
            assert path.stem in graph, "%s has no place in the import graph" % path.name
            if local:
                found.append("%s imports %s below its top level" % (path.name, sorted(local)))
            if graph[path.stem] is not None and top != graph[path.stem]:
                found.append("%s imports %s, not %s"
                             % (path.name, sorted(top), sorted(graph[path.stem])))
        assert not found, found

    def test_every_export_resolves(self):
        # a name left in __all__ after its definition is gone breaks `import *`
        namespace = {}
        exec("from smirnov import *", namespace)
        assert set(smirnov.__all__) <= namespace.keys()


def _reference_set_sequences(counts):
    """The recursive definition: each first set by size, then letters, followed
    by every sequence of the remaining content."""
    values = [v for v, c in enumerate(counts, start=1) if c]
    if not values:
        return [()]
    out = []
    for size in range(1, len(values) + 1):
        for subset in itertools.combinations(values, size):
            rest = [c - (v in subset) for v, c in enumerate(counts, start=1)]
            out.extend((subset,) + tail for tail in _reference_set_sequences(rest))
    return out


class TestSetSequences:
    def test_order_matches_the_recursive_definition(self):
        # every composition of n <= 6, and every weak one with at most three parts
        for n in range(7):
            for length in range(n + 1):
                for mu in itertools.product(range(n + 1), repeat=length):
                    if sum(mu) == n and (all(mu) or length <= 3):
                        assert list(set_sequences(mu)) == _reference_set_sequences(mu), mu

    def test_long_content_needs_no_recursion(self):
        # 1200 sets deep, far past the recursion limit set below
        code = textwrap.dedent("""
            import sys
            from smirnov.paths import enumerate_area0
            from smirnov.words import set_sequences
            sys.setrecursionlimit(100)
            mu = (1,) * 1200
            print(len(next(enumerate_area0(mu)).columns), len(next(set_sequences(mu))))
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1200", "1200"]


class TestInsertion:
    def test_peak_insertion_joins_blocks(self):
        w = parse_word("21|13")
        assert insert_many(w, 4, peaks=(1,)).text() == "21413"

    def test_fall_rise_singleton(self):
        w = parse_word("21|13")
        assert insert_many(w, 4, falls=(2,)).text() == "21|413"
        assert insert_many(w, 4, rises=(1,)).text() == "214|13"
        assert insert_many(w, 4, gaps=(1, 0, 0)).text() == "4|21|13"
        assert insert_many(w, 4, gaps=(0, 0, 1)).text() == "21|13|4"

    def test_peak_requires_strictly_maximal(self):
        w = parse_word("21|13")
        with pytest.raises(ValueError):
            insert_many(w, 3, peaks=(1,))
        with pytest.raises(ValueError):
            insert_many(w, 2, peaks=(1,))

    @pytest.mark.parametrize("m", [True, 1.0, "a"])
    def test_m_must_be_an_int(self, m):
        with pytest.raises(ValueError, match="^m must be a positive letter$"):
            insert_many(SegmentedSmirnovWord((1,), (1,)), m, gaps=[1, 0])

    @pytest.mark.parametrize("word, kind, entries", [
        ("1", "gaps", (1.5, 0)), ("1", "gaps", (0, True)), ("1", "rises", (1.0,)),
        ("1", "falls", ("1",)), ("1|1", "peaks", (True,)), ("1|2|1", "peaks", (1, True)),
        ("1", "falls", 1)])
    def test_site_entries_must_be_ints(self, word, kind, entries):
        bad = entries if type(entries) is int else [e for e in entries if type(e) is not int][0]
        with pytest.raises(ValueError, match="^%s must hold integers, got %s$"
                           % (kind, re.escape(repr(bad)))):
            insert_many(parse_word(word), 2, **{kind: entries})

    def test_equal_max_rejected_when_adjacent(self):
        w = parse_word("41|13")
        with pytest.raises(ValueError):
            insert_many(w, 4, falls=(1,))
        assert insert_many(w, 4, falls=(2,)).text() == "41|413"

    def test_bulk_insertion_order(self):
        w = parse_word("21|13|2")
        out = insert_many(w, 4, peaks=(2,), rises=(1,), falls=(2,), gaps=(1, 0, 0))
        assert out.text() == "4|214|41342"

    @given(words(alphabet=3), st.data())
    @settings(max_examples=120, deadline=None)
    def test_insert_extract_round_trip(self, w, data):
        m = max(w.letters) + 1
        s = len(w.shape)
        peaks = data.draw(st.frozensets(st.integers(min_value=1, max_value=s - 1))
                          if s > 1 else st.just(frozenset()))
        joined = st.frozensets(st.integers(min_value=1, max_value=s - len(peaks)))
        rises, falls = data.draw(joined), data.draw(joined)
        gaps = tuple(data.draw(st.lists(st.integers(min_value=0, max_value=2),
                                        min_size=s - len(peaks) + 1,
                                        max_size=s - len(peaks) + 1)))
        inserted = len(peaks) + len(rises) + len(falls) + sum(gaps)
        assume(inserted)
        grown = insert_many(w, m, peaks, rises, falls, gaps)
        assert grown.content() == w.content() + (inserted,)
        assert extract_maximal(grown) == (w, InsertionRecord(m, peaks, rises, falls, gaps))

    @given(words())
    @settings(max_examples=120, deadline=None)
    def test_extract_insert_round_trip(self, w):
        stripped, record = extract_maximal(w)
        assert record.m == max(w.letters)
        assert all(letter < record.m for letter in stripped.letters)
        rebuilt = insert_many(stripped, record.m, peaks=record.peaks,
                              rises=record.rises, falls=record.falls, gaps=record.gaps)
        assert rebuilt == w

    def test_extract_empty_errors(self):
        with pytest.raises(ValueError):
            extract_maximal(EMPTY_WORD)
