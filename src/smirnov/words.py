"""Segmented Smirnov words: parsing, classification, enumeration, insertions.

A segmented Smirnov word is a concatenation of Smirnov blocks (no two equal
adjacent letters within a block; equal letters may touch across block
boundaries).  Shapes are compositions of block lengths, contents are weak
compositions of letter multiplicities.  All reported indices are 1-based.
"""

from __future__ import annotations

import itertools
import operator
from collections.abc import Iterator, Sequence
from functools import cached_property

# the role of a letter occurrence in its block (see occurrence_roles), in the
# order in which paths.phi places the occurrences of one letter
PEAK, RISE, FALL, VALLEY = range(4)


class _Record:
    """The base of the package's immutable records.

    A record names its fields in `_fields`; its own `__init__` checks them and
    stores them with `object.__setattr__`.  Two records are equal when they are
    of one class and their fields are equal.  The hash and the repr
    `Name(field=value, ...)` read `_fields` too, so a cached property in the
    instance `__dict__` takes no part in them.  Assigning or deleting an
    attribute raises `AttributeError`.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = operator.attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))


class SegmentedSmirnovWord(_Record):
    """letters with a block-length shape; validated on construction."""

    _fields = ("letters", "shape")

    def __init__(self, letters: tuple, shape: tuple):
        letters = tuple(letters)
        shape = tuple(shape)
        object.__setattr__(self, "letters", letters)
        object.__setattr__(self, "shape", shape)
        for part in shape:
            if type(part) is not int or part < 1:
                raise ValueError("shape parts must be positive integers, got %r" % (part,))
        if sum(shape) != len(letters):
            raise ValueError("shape %r does not sum to letter count %d" % (shape, len(letters)))
        for pos, letter in enumerate(letters, start=1):
            if type(letter) is not int or letter < 1:
                raise ValueError("letter at index %d must be a positive integer, got %r"
                                 % (pos, letter))
        pos = 0
        for part in shape:
            for i in range(pos, pos + part - 1):
                if letters[i] == letters[i + 1]:
                    raise ValueError(
                        "Smirnov violation: equal adjacent letters at in-block index %d "
                        "(word index %d)" % (i - pos + 1, i + 1))
            pos += part

    @property
    def n(self) -> int:
        return len(self.letters)

    @cached_property
    def blocks(self) -> tuple:
        out = []
        pos = 0
        for part in self.shape:
            out.append(self.letters[pos:pos + part])
            pos += part
        return tuple(out)

    @cached_property
    def final_positions(self) -> frozenset:
        out, pos = [], 0
        for part in self.shape:
            pos += part
            out.append(pos)
        return frozenset(out)

    def content(self) -> tuple:
        return letter_content(self.letters)

    def ascent_positions(self) -> frozenset:
        """1-based i with w_{i+1} > w_i inside one block."""
        return frozenset(i for i in range(1, self.n)
                         if i not in self.final_positions
                         and self.letters[i] > self.letters[i - 1])

    def descent_positions(self) -> frozenset:
        return frozenset(i for i in range(1, self.n)
                         if i not in self.final_positions
                         and self.letters[i] < self.letters[i - 1])

    def text(self) -> str:
        sep = "" if max(self.letters, default=0) <= 9 else ","
        return "|".join([sep.join(map(str, block)) for block in self.blocks])

    def to_json(self) -> dict:
        return {"letters": list(self.letters), "shape": list(self.shape)}

    def __str__(self) -> str:
        return self.text()


EMPTY_WORD = SegmentedSmirnovWord((), ())


def letter_content(letters: Sequence[int], bound: int = None) -> tuple:
    """Weak composition: entry i-1 is the multiplicity of letter i, over the
    letters 1..bound when a bound is given, else with trailing zeros trimmed."""
    top = max(letters) if letters else 0  # faster than max(default=0) on CPython 3.11
    if bound is None:
        bound = top
    if top > bound or (letters and min(letters) < 1):  # else an index would overrun or wrap
        raise ValueError("letters must lie in 1..%r, got %r" % (bound, tuple(letters)))
    mu = [0] * bound
    for letter in letters:
        if type(letter) is not int:  # True would count as the letter 1
            raise ValueError("letters must be integers, got %r" % (tuple(letters),))
        mu[letter - 1] += 1
    return tuple(mu)


class PositionProfile(_Record):
    """Per-index classification; all sets 1-based."""

    _fields = ("roles", "initial", "final", "ascents", "descents")

    def __init__(self, roles: tuple, initial: frozenset, final: frozenset,
                 ascents: frozenset, descents: frozenset):
        # roles[i-1] in {"peak","valley","double_rise","double_fall"}
        object.__setattr__(self, "roles", roles)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "final", final)
        object.__setattr__(self, "ascents", ascents)
        object.__setattr__(self, "descents", descents)


def parse_word(text: str) -> SegmentedSmirnovWord:
    """Parse bar notation like "231|3212|12" or "12,3|4,12"; a letter is written
    in ASCII digits."""
    if text == "":
        raise ValueError("empty word text (construct the empty word directly)")
    letters = []
    shape = []
    # str.split, not text.split: a text that is not a str is Python's TypeError
    for block_no, chunk in enumerate(str.split(text, "|"), start=1):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty block at block index %d" % block_no)
        block = []
        # a comma-free chunk is read one character at a time
        for tok in [t.strip() for t in chunk.split(",")] if "," in chunk else chunk:
            if not (tok.isascii() and tok.isdigit()) or int(tok) < 1:
                raise ValueError("bad letter %r in block %d" % (tok, block_no))
            block.append(int(tok))
        letters.extend(block)
        shape.append(len(block))
    return SegmentedSmirnovWord(tuple(letters), tuple(shape))


def occurrence_roles(w: SegmentedSmirnovWord) -> list:
    """codes[i]: the role of the letter at 0-based position i among its
    in-block neighbours.  Both below it is PEAK, the left one only RISE, the
    right one only FALL, neither VALLEY; a block of one letter is a VALLEY.
    """
    letters = w.letters
    codes = []
    pos = 0
    for part in w.shape:
        # left / right: that in-block neighbour is below letters[i]; equal
        # letters never touch in a block, so the next letter's left neighbour
        # is below it exactly when its own right neighbour is not
        left = False
        for i in range(pos, pos + part - 1):
            right = letters[i + 1] < letters[i]
            codes.append(VALLEY - 2 * left - right)
            left = not right
        codes.append(VALLEY - 2 * left)
        pos += part
    return codes


def block_starts(w: SegmentedSmirnovWord) -> list:
    """starts[i] is True when 0-based position i begins a block."""
    starts = [False] * w.n
    pos = 0
    for part in w.shape:
        starts[pos] = True
        pos += part
    return starts


def ascents_descents(w: SegmentedSmirnovWord) -> tuple:
    """(k, l): the ascent and descent counts of a word."""
    return len(w.ascent_positions()), len(w.descent_positions())


_ROLE_NAMES = ("peak", "double_rise", "double_fall", "valley")  # by role code


def classify(w: SegmentedSmirnovWord) -> PositionProfile:
    """Roles named from occurrence_roles; block ends, ascents and descents in
    one pass over the blocks."""
    letters = w.letters
    initial, final, ascents, descents = [], [], [], []
    pos = 0
    for part in w.shape:
        initial.append(pos + 1)
        end = pos + part
        for i in range(pos + 1, end):  # equal letters never touch in a block
            (ascents if letters[i] > letters[i - 1] else descents).append(i)
        final.append(end)
        pos = end
    return PositionProfile(tuple(map(_ROLE_NAMES.__getitem__, occurrence_roles(w))),
                           frozenset(initial), frozenset(final),
                           frozenset(ascents), frozenset(descents))


def _depth_first(root, children) -> Iterator:
    """Every complete node below root, depth first, in the order children gives.

    children(node) yields (child, complete) pairs: a complete child is yielded,
    any other is expanded.  One iterator per open node on an explicit stack,
    so no recursion-depth limit applies.
    """
    stack = [children(root)]
    while stack:
        for child, complete in stack[-1]:
            if complete:
                yield child
            else:
                stack.append(children(child))
                break
        else:
            stack.pop()


def partitions_of(n: int) -> Iterator[tuple]:
    """All partitions of n, parts weakly decreasing, largest first part first."""
    def children(node):
        parts, remaining, cap = node
        if remaining <= cap:
            yield parts + (remaining,), True
            cap = remaining - 1
        for part in range(cap, 0, -1):
            yield (parts + (part,), remaining - part, part), False
    return _depth_first(((), n, n), children) if n > 0 else iter([()] if n == 0 else [])


def _trim(mu: Sequence[int]) -> tuple:
    mu = list(mu)
    for part in mu:
        if type(part) is not int or part < 0:
            raise ValueError("content parts must be nonnegative")
    while mu and mu[-1] == 0:
        mu.pop()
    return tuple(mu)


def _arrangements(mu: tuple) -> Iterator[tuple]:
    """Distinct letter sequences of content mu in lexicographic order (next-permutation)."""
    letters = [value for value, count in enumerate(mu, start=1) for _ in range(count)]
    while True:
        yield tuple(letters)
        i = len(letters) - 2
        while i >= 0 and letters[i] >= letters[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(letters) - 1
        while letters[j] <= letters[i]:
            j -= 1
        letters[i], letters[j] = letters[j], letters[i]
        letters[i + 1:] = reversed(letters[i + 1:])


def shapes_for(letters: Sequence[int]) -> Iterator[tuple]:
    """Every shape making letters a segmented Smirnov word, in lexicographic order.

    A shape is valid exactly when it cuts between every pair of equal adjacent
    letters; every other gap is free.  Offering a cut before no cut at each gap
    yields the compositions in lexicographic order.
    """
    if not letters:
        yield ()
        return
    gaps = [(True,) if a == b else (True, False) for a, b in zip(letters, letters[1:])]
    for cuts in itertools.product(*gaps):
        shape, run = [], 1
        for cut in cuts:
            if cut:
                shape.append(run)
                run = 1
            else:
                run += 1
        shape.append(run)
        yield tuple(shape)


def enumerate_words(mu: Sequence[int]) -> Iterator[SegmentedSmirnovWord]:
    """All segmented Smirnov words of content mu, lexicographic by letters then shape."""
    for letters in _arrangements(_trim(mu)):
        for shape in shapes_for(letters):
            yield SegmentedSmirnovWord(letters, shape)


def words_of_length(n: int, bound: int) -> Iterator[SegmentedSmirnovWord]:
    """All segmented Smirnov words with n letters from 1..bound, lexicographic by
    letters then shape."""
    for letters in itertools.product(range(1, bound + 1), repeat=n):
        for shape in shapes_for(letters):
            yield SegmentedSmirnovWord(letters, shape)


def set_sequences(mu: Sequence[int]) -> Iterator[tuple]:
    """Sequences of nonempty sets (sorted tuples) whose multiset union has content mu,
    ordered by the size of the first set, then its letters, then the rest likewise."""
    def children(node):
        prefix, counts = node
        values = [value for value, count in enumerate(counts, start=1) if count]
        for size in range(1, len(values) + 1):
            for subset in itertools.combinations(values, size):
                rest = list(counts)
                for value in subset:
                    rest[value - 1] -= 1
                if any(rest):
                    yield (prefix + (subset,), rest), False
                else:
                    yield prefix + (subset,), True
    counts = _trim(mu)
    return _depth_first(((), counts), children) if counts else iter([()])


def enumerate_words_by_stat(mu: Sequence[int], k: int, l: int) -> Iterator[SegmentedSmirnovWord]:
    """Words of content mu with exactly k ascents and l descents."""
    for w in enumerate_words(mu):
        if len(w.ascent_positions()) == k and len(w.descent_positions()) == l:
            yield w


def _int_list(name: str, values: Sequence[int]) -> list:
    """values as a list, each entry an int proper (so not a bool or a float)."""
    values = list(values)
    for v in values:
        if type(v) is not int:
            raise ValueError("%s must hold integers, got %r" % (name, v))
    return values


def insert_many(w: SegmentedSmirnovWord, m: int,
                peaks: Sequence[int] = (), rises: Sequence[int] = (),
                falls: Sequence[int] = (), gaps: Sequence[int] = ()) -> SegmentedSmirnovWord:
    """Insert occurrences of a maximal letter m in bulk.

    peaks: separator indices of w (1..#blocks-1) replaced by m, joining blocks.
    rises/falls: indices (1-based) of the blocks *after joining* receiving a
    final/initial m.  gaps: singleton-block counts per gap 0..#joined-blocks.
    """
    if type(m) is int and max(w.letters, default=m) > m:
        raise ValueError("m=%d is smaller than a letter of the word" % m)
    if type(m) is not int or m < 1:
        raise ValueError("m must be a positive letter")
    blocks = [list(b) for b in w.blocks]
    s = len(blocks)
    peaks = set(_int_list("peaks", peaks))
    for t in peaks:
        if not 1 <= t <= s - 1:
            raise ValueError("peak separator %d out of range 1..%d" % (t, s - 1))
    if peaks and any(m in blk for blk in blocks):
        raise ValueError("peak insertion requires m strictly above every letter")
    joined = []
    if blocks:
        cur = blocks[0]
        for t in range(1, s):
            if t in peaks:
                cur = cur + [m] + blocks[t]
            else:
                joined.append(cur)
                cur = blocks[t]
        joined.append(cur)
    s1 = len(joined)
    for b in set(_int_list("rises", rises)):
        if not 1 <= b <= s1:
            raise ValueError("rise block %d out of range 1..%d" % (b, s1))
        if joined[b - 1][-1] == m:
            raise ValueError("block %d already ends with m=%d" % (b, m))
        joined[b - 1].append(m)
    for b in set(_int_list("falls", falls)):
        if not 1 <= b <= s1:
            raise ValueError("fall block %d out of range 1..%d" % (b, s1))
        if joined[b - 1][0] == m:
            raise ValueError("block %d already starts with m=%d" % (b, m))
        joined[b - 1].insert(0, m)
    gaps = _int_list("gaps", gaps) or [0] * (s1 + 1)
    if len(gaps) != s1 + 1 or any(g < 0 for g in gaps):
        raise ValueError("gaps must list %d nonnegative counts" % (s1 + 1))
    out = []
    for g, blk in enumerate(joined):
        out.extend([m] for _ in range(gaps[g]))
        out.append(blk)
    out.extend([m] for _ in range(gaps[s1]))
    return _from_blocks(out)


class InsertionRecord(_Record):
    """How the occurrences of the maximal letter m sit inside a word.

    peaks are separator indices of the stripped word; rises/falls index the
    joined blocks; gaps[g] counts singleton-m blocks in gap g (0-based from the
    left, over the joined blocks).
    """

    _fields = ("m", "peaks", "rises", "falls", "gaps")

    def __init__(self, m: int, peaks: frozenset, rises: frozenset, falls: frozenset,
                 gaps: tuple):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "peaks", peaks)
        object.__setattr__(self, "rises", rises)
        object.__setattr__(self, "falls", falls)
        object.__setattr__(self, "gaps", gaps)


def extract_maximal(w: SegmentedSmirnovWord) -> tuple:
    """Split off every occurrence of the maximal letter.

    Returns (w_prime, record) with insert_many(w_prime, record.m, ...) == w.
    """
    if w.n == 0:
        raise ValueError("cannot extract from the empty word")
    m = max(w.letters)
    gaps = []
    pending = 0
    peaks, rises, falls = set(), set(), set()
    stripped = []
    for blk in w.blocks:
        if len(blk) == 1 and blk[0] == m:
            pending += 1
            continue
        gaps.append(pending)
        pending = 0
        lo, hi = 0, len(blk)
        if blk[-1] == m:
            rises.add(len(gaps))
            hi -= 1
        if blk[0] == m:
            falls.add(len(gaps))
            lo = 1
        first = len(stripped) + 1
        body = list(blk[lo:hi])
        while m in body:
            i = body.index(m)
            stripped.append(body[:i])
            body = body[i + 1:]
        stripped.append(body)
        peaks.update(range(first, len(stripped)))
    gaps.append(pending)
    record = InsertionRecord(m, frozenset(peaks), frozenset(rises), frozenset(falls),
                             tuple(gaps))
    return _from_blocks(stripped), record


def _from_blocks(blocks: Sequence[Sequence[int]]) -> SegmentedSmirnovWord:
    return SegmentedSmirnovWord(tuple(itertools.chain.from_iterable(blocks)),
                                tuple(map(len, blocks)))
