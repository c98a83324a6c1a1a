"""Decorated labelled Dyck paths, area/dinv, and the insertion bijection phi
between segmented Smirnov words and area-0 decorated labelled paths.

Area-0 paths are stored in block form: a sequence of columns N^i E^i, each
column a strictly increasing label tuple plus a valley-decoration flag on its
first (diagonal) north step.  Every non-first north step of a column is a
decorated rise.  Blocks of a path are the runs of columns started by the
undecorated diagonal steps; blocks of a path correspond to the blocks of its
word under phi in reversed order.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from functools import cached_property
from operator import lt

from .stats import sdinv_count
from .words import (FALL, PEAK, RISE, VALLEY, SegmentedSmirnovWord, _from_blocks, _Record,
                    letter_content, occurrence_roles, set_sequences)


class DecoratedLabelledDyckPath(_Record):
    """Step form: steps over {N, E}; labels, decorated rises and valleys are
    indexed by vertical-step number (1-based)."""

    _fields = ("steps", "labels", "drise", "dvalley")

    def __init__(self, steps: str, labels: tuple, drise: frozenset, dvalley: frozenset):
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "labels", tuple(labels))
        object.__setattr__(self, "drise", frozenset(drise))
        object.__setattr__(self, "dvalley", frozenset(dvalley))
        if type(steps) is not str or set(steps) - {"N", "E"}:
            raise ValueError("steps must be over {N, E}")
        n = steps.count("N")
        if steps.count("E") != n:
            raise ValueError("path must have equally many N and E steps")
        if len(self.labels) != n:
            raise ValueError("expected %d labels" % n)
        if not all(type(x) is int and x >= 1 for x in self.labels):
            raise ValueError("labels must be positive integers")
        x = y = 0
        for s in steps:
            if s == "N":
                y += 1
            else:
                x += 1
            if x > y:
                raise ValueError("path dips below the diagonal")
        for i in range(1, n):
            if self.vertical_positions[i] == self.vertical_positions[i - 1] + 1 \
                    and self.labels[i] <= self.labels[i - 1]:
                raise ValueError("labels on consecutive north steps must increase "
                                 "(vertical steps %d, %d)" % (i, i + 1))
        rises = self.rise_set()
        for i in self.drise:
            if type(i) is not int or i not in rises:
                raise ValueError("decorated rise %r is not a rise" % (i,))
        for i in self.dvalley:
            if type(i) is not int or not self.is_contractible_valley(i):
                raise ValueError("decorated valley %r is not a contractible valley" % (i,))

    @cached_property
    def vertical_positions(self) -> tuple:
        """0-based step-string position of each vertical step."""
        return tuple(p for p, s in enumerate(self.steps) if s == "N")

    @property
    def n(self) -> int:
        return len(self.labels)

    def rise_set(self) -> frozenset:
        """Vertical steps immediately preceded by a vertical step."""
        vp = self.vertical_positions
        return frozenset(i + 1 for i in range(1, len(vp)) if vp[i] == vp[i - 1] + 1)

    def is_contractible_valley(self, i: int) -> bool:
        """Valley: preceded by an east step; contractible if preceded by two
        east steps, or by one east step preceded by a smaller-labelled north step."""
        if not 1 <= i <= self.n:
            return False
        p = self.vertical_positions[i - 1]
        if p == 0 or self.steps[p - 1] != "E":
            return False
        if p >= 2 and self.steps[p - 2] == "E":
            return True
        if p >= 2 and self.steps[p - 2] == "N":
            return self.labels[i - 2] < self.labels[i - 1]
        return False

    def content(self) -> tuple:
        return letter_content(self.labels)

    def to_json(self) -> dict:
        return {"steps": self.steps, "labels": list(self.labels),
                "drise": sorted(self.drise), "dvalley": sorted(self.dvalley)}


def area_word(D) -> tuple:
    D = _as_steps(D)
    out = []
    x = y = 0
    for s in D.steps:
        if s == "N":
            out.append(y - x)
            y += 1
        else:
            x += 1
    return tuple(out)


def area(D) -> int:
    D = _as_steps(D)
    a = area_word(D)
    return sum(a[i - 1] for i in range(1, D.n + 1) if i not in D.drise)


def path_dinv(D) -> int:
    """Primary + secondary diagonal inversions minus the decorated valley count."""
    D = _as_steps(D)
    a = area_word(D)
    labels = D.labels
    total = 0
    for i in range(1, D.n + 1):
        if i in D.dvalley:
            continue
        for j in range(i + 1, D.n + 1):
            if a[i - 1] == a[j - 1] and labels[i - 1] < labels[j - 1]:
                total += 1
            elif a[i - 1] == a[j - 1] + 1 and labels[i - 1] > labels[j - 1]:
                total += 1
    return total - len(D.dvalley)


class AreaZeroDecoratedPath(_Record):
    """Block form of an area-0 path: columns (labels, valley_decorated)."""

    _fields = ("columns",)

    def __init__(self, columns: tuple):
        cols = []
        for c, (labels, flag) in enumerate(columns, start=1):
            labels = tuple(labels)
            cols.append((labels, bool(flag)))
            if not labels:
                raise ValueError("empty column %d" % c)
            if not all(type(x) is int for x in labels) or min(labels) < 1:
                raise ValueError("labels must be positive integers")
            if not all(map(lt, labels, labels[1:])):
                raise ValueError("column %d labels must strictly increase" % c)
        cols = tuple(cols)
        object.__setattr__(self, "columns", cols)
        if cols and cols[0][1]:
            raise ValueError("the first column cannot be a decorated valley")
        for c, ((prev, _), (labels, flag)) in enumerate(zip(cols, cols[1:]), start=2):
            if flag and len(prev) < 2 and prev[-1] >= labels[0]:
                raise ValueError("decorated valley at column %d is not contractible" % c)

    @property
    def n(self) -> int:
        return sum(len(labels) for labels, _ in self.columns)

    def labels(self) -> tuple:
        return tuple(itertools.chain.from_iterable(labels for labels, _ in self.columns))

    def content(self) -> tuple:
        return letter_content(self.labels())

    def rise_count(self) -> int:
        return sum(len(labels) - 1 for labels, _ in self.columns)

    def valley_count(self) -> int:
        return sum(1 for _, flag in self.columns if flag)

    def to_steps(self) -> DecoratedLabelledDyckPath:
        steps = []
        labels = []
        drise = set()
        dvalley = set()
        v = 0
        for col_labels, flag in self.columns:
            for idx, lab in enumerate(col_labels):
                v += 1
                steps.append("N")
                labels.append(lab)
                if idx > 0:
                    drise.add(v)
                elif flag:
                    dvalley.add(v)
            steps.extend("E" * len(col_labels))
        return DecoratedLabelledDyckPath("".join(steps), tuple(labels),
                                         frozenset(drise), frozenset(dvalley))

    def text(self) -> str:
        return " ".join(
            ("*" if flag else "") + ",".join(str(x) for x in labels)
            for labels, flag in self.columns) or "(empty)"

    def to_json(self) -> dict:
        return self.to_steps().to_json()

    def __str__(self) -> str:
        return self.text()


EMPTY_PATH = AreaZeroDecoratedPath(())


def _as_steps(D) -> DecoratedLabelledDyckPath:
    if isinstance(D, AreaZeroDecoratedPath):
        return D.to_steps()
    return D


def phi(w: SegmentedSmirnovWord) -> AreaZeroDecoratedPath:
    """The insertion bijection from words to area-0 decorated labelled paths.

    One pass over the positions in increasing letter order.  An occurrence of
    m is a peak, rise, fall or valley by words.occurrence_roles, and the
    occurrences of one letter are placed in that order: a rise lands on its
    block as the peaks joined it, and on that block's last column before a
    fall appends another; a valley starts a column of its own.  The positions
    placed so far form intervals, each a block of the word without its
    letters above m and a block of the path; the interval [lo, hi] keeps its
    first and last column at lo and its ends in hi_of[lo] and lo_of[hi].  An
    occurrence's neighbours are always interval ends, so no search is needed.
    Columns are linked in path order through after[]; links that do not form
    one path raise ValueError rather than loop.  Only the result is validated.
    """
    letters = w.letters
    n = len(letters)
    cols, decorated, after = [], [], []
    head, tail, hi_of, lo_of = [0] * n, [0] * n, [0] * n, [0] * n
    for m, role, i in sorted(zip(letters, occurrence_roles(w), range(n))):
        if role == PEAK:  # right block's columns, then the left block's
            lo, r = lo_of[i - 1], i + 1
            cols[tail[r]].append(m)
            decorated[head[lo]] = True
            after[tail[r]] = head[lo]
            head[lo], hi = head[r], hi_of[r]
        elif role == RISE:
            lo, hi = lo_of[i - 1], i
            cols[tail[lo]].append(m)
        else:
            c = len(cols)
            cols.append([m])
            decorated.append(role == FALL)
            after.append(-1)
            if role == FALL:
                lo, r = i, i + 1
                after[tail[r]] = c
                head[lo], tail[lo], hi = head[r], c, hi_of[r]
            else:
                lo = hi = i
                head[i] = tail[i] = c
        hi_of[lo], lo_of[hi] = hi, lo
    out = []
    start = n
    for part in reversed(w.shape):
        start -= part
        c = head[start]
        while c >= 0:
            if len(out) == len(cols):
                raise ValueError("the column links of %s do not form one path" % (w,))
            out.append((cols[c], decorated[c]))
            c = after[c]
    return AreaZeroDecoratedPath(out)


def phi_inverse(D: AreaZeroDecoratedPath) -> SegmentedSmirnovWord:
    """Inverse of phi: one pass over the labels in increasing order.

    A decorated column c + 1 joins column c by a peak when top(c) > bottom(c + 1),
    and that top label is the peak; otherwise by a fall, and bottom(c + 1) is
    the fall.  Every other bottom label is a valley, every other label a rise
    (the roles of words.occurrence_roles).  The columns placed so far form
    intervals, kept at their ends as in phi, each with its word: a peak gives
    word(left) + [m] + word(right), a rise appends m, a fall prepends it, a
    valley starts [m].  Only the result is validated.
    """
    cols = D.columns
    k = len(cols)
    joined = [False] * (k + 1)  # joined[c]: a peak joins columns c - 1 and c
    for c in range(1, k):
        joined[c] = cols[c][1] and cols[c - 1][0][-1] > cols[c][0][0]
    items = []
    for c, (labels, flag) in enumerate(cols):
        items.append((labels[0], FALL if flag and not joined[c] else VALLEY, c))
        items.extend((m, RISE, c) for m in labels[1:-1])
        if len(labels) > 1:
            items.append((labels[-1], PEAK if joined[c + 1] else RISE, c))
    words, hi_of, lo_of = [None] * k, [0] * k, [0] * k
    for m, role, c in sorted(items):
        if role == PEAK:
            lo, r = lo_of[c], c + 1
            words[lo] = words[r] + [m] + words[lo]
            hi = hi_of[r]
        elif role == RISE:
            lo, hi = lo_of[c], c
            words[lo].append(m)
        elif role == FALL:
            lo, hi = lo_of[c - 1], c
            words[lo].insert(0, m)
        else:
            lo = hi = c
            words[c] = [m]
        hi_of[lo], lo_of[hi] = hi, lo
    return _from_blocks([words[c] for c in range(k - 1, -1, -1) if not cols[c][1]])


def unified_dinv(D: AreaZeroDecoratedPath) -> int:
    """The unified statistic: sdinv of the preimage word."""
    return sdinv_count(phi_inverse(D))


def enumerate_area0(mu: Sequence[int]) -> Iterator[AreaZeroDecoratedPath]:
    """All area-0 decorated labelled paths with label content mu.

    A column after the first may carry the valley decoration exactly when the
    valley is contractible: its predecessor has two or more labels or ends below
    the column's first label.
    """
    for seq in set_sequences(mu):
        options = [(False,)]
        for prev, col in zip(seq, seq[1:]):
            options.append((False, True) if len(prev) >= 2 or prev[-1] < col[0] else (False,))
        for flags in itertools.product(*options):
            yield AreaZeroDecoratedPath(tuple(zip(seq, flags)))
