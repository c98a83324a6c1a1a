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
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from .words import (EMPTY_WORD, InsertionRecord, SegmentedSmirnovWord, extract_maximal,
                    insert_many, letter_content, set_sequences)


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

    def block_ranges(self) -> tuple:
        """Runs of column indices (0-based, half-open) forming the path blocks."""
        starts = [c for c, (_, flag) in enumerate(self.columns) if not flag]
        starts.append(len(self.columns))
        return tuple((starts[i], starts[i + 1]) for i in range(len(starts) - 1))

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


def _apply_record(Dprime: AreaZeroDecoratedPath, rec: InsertionRecord) -> AreaZeroDecoratedPath:
    """Replay one level of insertions (peaks, rises, falls, singletons) on a path."""
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


def _strip_record(D: AreaZeroDecoratedPath) -> tuple:
    """Remove every occurrence of the maximal label; inverse of _apply_record."""
    cols = [[list(labels), flag] for labels, flag in D.columns]
    m = max(max(labels) for labels, _ in cols)
    nested = []
    for col in cols:
        if col[1] and nested:
            nested[-1].append(col)
        else:
            nested.append([col])
    path_gaps = []
    pending = 0
    nonsing = []
    removed = set()
    for blk in nested:
        if len(blk) == 1 and blk[0][0] == [m] and not blk[0][1]:
            pending += 1
            removed.add(id(blk[0]))
        else:
            path_gaps.append(pending)
            pending = 0
            nonsing.append(blk)
    path_gaps.append(pending)
    b1 = len(nonsing)
    rises_p, falls_p, peak_cols = [], [], []
    for p, blk in enumerate(nonsing, start=1):
        if blk[-1][0] == [m] and blk[-1][1]:
            falls_p.append(p)
            removed.add(id(blk[-1]))
            blk = blk[:-1]
        if not blk:
            raise ValueError("malformed path: block reduces to nothing at level %d" % m)
        if blk[-1][0][-1] == m:
            if len(blk[-1][0]) == 1:
                raise ValueError("malformed path: bare maximal column inside a block")
            rises_p.append(p)
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
                peak_cols.append(id(col))
    survivors = [col for col in cols if id(col) not in removed]
    Dprime = AreaZeroDecoratedPath(tuple((tuple(labels), flag) for labels, flag in survivors))
    # locate each peak column's block in the stripped path
    ranges = Dprime.block_ranges()
    bprime = len(ranges)
    col_block = {}
    for blk_idx, (lo, hi) in enumerate(ranges, start=1):
        for c in range(lo, hi):
            col_block[id(survivors[c])] = (blk_idx, c == hi - 1)
    peaks = set()
    for cid in peak_cols:
        blk_idx, is_last = col_block[cid]
        if not is_last:
            raise ValueError("malformed path: peak label not atop a block-final column")
        peaks.add(bprime - blk_idx)
    rec = InsertionRecord(
        m,
        frozenset(peaks),
        frozenset(b1 - p + 1 for p in rises_p),
        frozenset(b1 - p + 1 for p in falls_p),
        tuple(path_gaps[b1 - g] for g in range(b1 + 1)),
    )
    return Dprime, rec


def phi(w: SegmentedSmirnovWord) -> AreaZeroDecoratedPath:
    """The insertion bijection from words to area-0 decorated labelled paths."""
    if w.n == 0:
        return EMPTY_PATH
    wprime, rec = extract_maximal(w)
    return _apply_record(phi(wprime), rec)


def phi_inverse(D: AreaZeroDecoratedPath) -> SegmentedSmirnovWord:
    """Inverse of phi: strip maximal labels level by level."""
    if not D.columns:
        return EMPTY_WORD
    Dprime, rec = _strip_record(D)
    wprime = phi_inverse(Dprime)
    return insert_many(wprime, rec.m, rec.peaks, rec.rises, rec.falls, rec.gaps)


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
