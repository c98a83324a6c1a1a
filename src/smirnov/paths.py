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
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from .words import (SegmentedSmirnovWord, _from_blocks, _insert_blocks, _split_maximal,
                    letter_content, set_sequences)


@dataclass(frozen=True)
class DecoratedLabelledDyckPath:
    """Step form: steps over {N, E}; labels, decorated rises and valleys are
    indexed by vertical-step number (1-based)."""

    steps: str
    labels: tuple
    drise: frozenset
    dvalley: frozenset

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "drise", frozenset(self.drise))
        object.__setattr__(self, "dvalley", frozenset(self.dvalley))
        steps = self.steps
        if set(steps) - {"N", "E"}:
            raise ValueError("steps must be over {N, E}")
        n = steps.count("N")
        if steps.count("E") != n:
            raise ValueError("path must have equally many N and E steps")
        if len(self.labels) != n:
            raise ValueError("expected %d labels" % n)
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
            if i not in rises:
                raise ValueError("decorated rise %d is not a rise" % i)
        for i in self.dvalley:
            if not self.is_contractible_valley(i):
                raise ValueError("decorated valley %d is not a contractible valley" % i)

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

    def ascii_grid(self) -> str:
        """Rows top to bottom; each row shows the cells left of the path."""
        n = self.n
        lines = []
        x = y = 0
        row_x = {}
        for s in self.steps:
            if s == "N":
                row_x[y] = x
                y += 1
            else:
                x += 1
        for i in range(n, 0, -1):
            xi = row_x[i - 1]
            deco = "*" if i in self.drise else ("o" if i in self.dvalley else " ")
            lines.append("." * xi + "|" + deco + str(self.labels[i - 1]))
        return "\n".join(lines)


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


@dataclass(frozen=True)
class AreaZeroDecoratedPath:
    """Block form of an area-0 path: columns (labels, valley_decorated)."""

    columns: tuple

    def __post_init__(self):
        cols = tuple((tuple(labels), bool(flag)) for labels, flag in self.columns)
        object.__setattr__(self, "columns", cols)
        for c, (labels, flag) in enumerate(cols, start=1):
            if not labels:
                raise ValueError("empty column %d" % c)
            if any(x < 1 for x in labels):
                raise ValueError("labels must be positive integers")
            if any(labels[i] >= labels[i + 1] for i in range(len(labels) - 1)):
                raise ValueError("column %d labels must strictly increase" % c)
        if cols and cols[0][1]:
            raise ValueError("the first column cannot be a decorated valley")
        for c in range(1, len(cols)):
            labels, flag = cols[c]
            if flag:
                prev = cols[c - 1][0]
                if len(prev) < 2 and prev[-1] >= labels[0]:
                    raise ValueError("decorated valley at column %d is not contractible"
                                     % (c + 1))

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


def _path_blocks(cols: list) -> list:
    """[labels, flag] columns grouped into path blocks, each started by an
    undecorated column."""
    blocks = []
    for col in cols:
        if col[1] and blocks:
            blocks[-1].append(col)
        else:
            blocks.append([col])
    return blocks


def phi(w: SegmentedSmirnovWord) -> AreaZeroDecoratedPath:
    """The insertion bijection from words to area-0 decorated labelled paths.

    Peels the maximal letter off the word's blocks until none is left, then
    replays the levels, smallest letter first, on [labels, flag] columns.  Only
    the result is validated, and the stack depth does not grow with the number
    of levels.
    """
    levels = []
    blocks = w.blocks
    while blocks:
        level, blocks = _split_maximal(blocks)
        levels.append(level)
    path = []  # path blocks, each a list of [labels, flag] columns
    for m, peaks, rises, falls, gaps in reversed(levels):
        bp = len(path)
        for t in peaks:  # word separator t joins path blocks bp - t and bp - t + 1
            path[bp - t - 1][-1][0].append(m)
            path[bp - t][0][1] = True
        if peaks:
            path = _path_blocks([col for blk in path for col in blk])
        b1 = len(path)
        for b in rises:
            path[b1 - b][-1][0].append(m)
        for b in falls:
            path[b1 - b].append([[m], True])
        grown = []
        for gp, blk in enumerate(path):  # path gap gp is word gap b1 - gp
            grown.extend([[[m], False]] for _ in range(gaps[b1 - gp]))
            grown.append(blk)
        grown.extend([[[m], False]] for _ in range(gaps[0]))
        path = grown
    return AreaZeroDecoratedPath([col for blk in path for col in blk])


def phi_inverse(D: AreaZeroDecoratedPath) -> SegmentedSmirnovWord:
    """Inverse of phi: strips the maximal label off [labels, flag] columns until
    none is left, then replays the word insertions smallest letter first.  Only
    the result is validated."""
    cols = [[list(labels), flag] for labels, flag in D.columns]
    levels = []
    while cols:
        m = max(labels[-1] for labels, _ in cols)
        path_gaps = []
        pending = 0
        nonsing = []
        for blk in _path_blocks(cols):
            if len(blk) == 1 and blk[0][0] == [m] and not blk[0][1]:
                pending += 1
            else:
                path_gaps.append(pending)
                pending = 0
                nonsing.append(blk)
        path_gaps.append(pending)
        b1 = len(nonsing)
        rises, falls, peak_cols = set(), set(), []
        cols = []
        for p, blk in enumerate(nonsing, start=1):
            if blk[-1][0] == [m] and blk[-1][1]:
                falls.add(b1 - p + 1)
                blk.pop()
            if not blk:
                raise ValueError("malformed path: block reduces to nothing at level %d" % m)
            if blk[-1][0][-1] == m:
                if len(blk[-1][0]) == 1:
                    raise ValueError("malformed path: bare maximal column inside a block")
                rises.add(b1 - p + 1)
                blk[-1][0].pop()
            for idx in range(len(blk) - 1):
                col = blk[idx]
                if col[0][-1] == m:
                    if len(col[0]) == 1:
                        raise ValueError("malformed path: bare maximal column inside a block")
                    nxt = blk[idx + 1]
                    if not nxt[1]:
                        raise ValueError("malformed path: interior maximal label not "
                                         "followed by a decorated valley")
                    col[0].pop()
                    nxt[1] = False
                    peak_cols.append(len(cols) + idx)
            cols.extend(blk)
        starts = [c for c, col in enumerate(cols) if not col[1]]
        peaks = set()
        for c in peak_cols:
            if c + 1 < len(cols) and cols[c + 1][1]:
                raise ValueError("malformed path: peak label not atop a block-final column")
            peaks.add(len(starts) - bisect_right(starts, c))
        levels.append((m, peaks, rises, falls, path_gaps[::-1]))
    blocks = []
    for m, peaks, rises, falls, gaps in reversed(levels):
        blocks = _insert_blocks(blocks, m, peaks, rises, falls, gaps)
    return _from_blocks(blocks)


def unified_dinv(D: AreaZeroDecoratedPath) -> int:
    """The unified statistic: sdinv of the preimage word."""
    from .stats import sdinv_count
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
