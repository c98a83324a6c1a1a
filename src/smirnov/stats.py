"""The q-statistics sminv and sdinv, their q-distributions over a set of
words, and the projection to ordered multiset partitions with the classical
inv/dinv."""

from __future__ import annotations

import collections
from collections.abc import Iterable, Sequence

from .qengine import histogram_poly
from .words import (PEAK, SegmentedSmirnovWord, _Record, ascents_descents, block_starts,
                    occurrence_roles)


class InversionReport(_Record):
    """pairs: ((i, j, tags), ...) with 1-based indices; tags list every case that fired."""

    _fields = ("pairs",)

    def __init__(self, pairs: tuple):
        object.__setattr__(self, "pairs", pairs)

    @property
    def count(self) -> int:
        return len(self.pairs)

    def pair_set(self) -> frozenset:
        return frozenset((i, j) for i, j, _ in self.pairs)

    def to_json(self) -> dict:
        return {"count": self.count,
                "pairs": [[i, j, "+".join(tags)] for i, j, tags in self.pairs]}


# The tags of an sminv pair by case code: bit 8 is case 1, 4 case 2, 2 case 3
# and 1 case 4; code 0 is no pair.
_SMINV_TAGS = tuple(tuple(tag for tag, bit in zip("1234", (8, 4, 2, 1)) if code & bit)
                    for code in range(16))
_PEAK, _RIGHT, _LEFT = ("peak",), ("right",), ("left",)


def sminv(w: SegmentedSmirnovWord) -> InversionReport:
    """Smirnov inversions: pairs i < j with w_i > w_j satisfying one of four cases.

    (1) j initial; (2) w_{j-1} > w_i; (3) i != j-1 and w_{j-1} = w_i with j-1
    initial; (4) i != j-1 and w_{j-2} > w_{j-1} = w_i.

    One scan over the rows i, each over the columns j > i.  For j = i + 1,
    w_{j-1} = w_i, so only case 1 can fire.  Each later column's case codes
    are read once: case 1's bit, plus case 2's when w_{j-1} > w_i, or cases
    3/4's when w_{j-1} = w_i; the tags come from constant tuples.  The pairs
    come by i, then j.  `tests/test_stats.py::sminv_oracle` transcribes the
    cases pair by pair and is the test oracle.
    """
    letters = w.letters
    n = len(letters)
    starts = block_starts(w)
    cols = []  # cols[j - 2]: (j + 1, w_j, w_{j-1}, tags when w_{j-1} < w_i, > w_i, = w_i)
    for j in range(2, n):
        p = letters[j - 1]
        one = 8 if starts[j] else 0
        equal = one | (2 if starts[j - 1] else 0) | (1 if letters[j - 2] > p else 0)
        cols.append((j + 1, letters[j], p, _SMINV_TAGS[one], _SMINV_TAGS[one | 4],
                     _SMINV_TAGS[equal]))
    pairs = []
    for i, wi in enumerate(letters):
        if i + 1 < n and starts[i + 1] and letters[i + 1] < wi:
            pairs.append((i + 1, i + 2, _SMINV_TAGS[8]))
        for j1, wj, p, below, above, equal in cols[i:]:
            if wj < wi:
                tags = above if p > wi else equal if p == wi else below
                if tags:
                    pairs.append((i + 1, j1, tags))
    return InversionReport(tuple(pairs))


def _sminv_tally(letters: Sequence[int], starts: list) -> list:
    """tally[i]: the number of sminv pairs (i, j) with left index i (0-based).

    The cases of `sminv`, read for a fixed j: if j starts a block, every i < j
    with w_i > w_j counts (1).  Otherwise, with p = w_{j-1}, i counts when
    w_j < w_i < p (2), or when w_i = p > w_j, i != j-1, and j-1 starts a block
    (3) or w_{j-2} > p (4).
    """
    tally = [0] * len(letters)
    for j in range(1, len(letters)):
        wj = letters[j]
        if starts[j]:
            for i in range(j):
                if letters[i] > wj:
                    tally[i] += 1
            continue
        p = letters[j - 1]
        if p < wj:
            continue
        equal_counts = starts[j - 1] or letters[j - 2] > p
        for i in range(j - 1):
            wi = letters[i]
            if wj < wi < p or (equal_counts and wi == p):
                tally[i] += 1
    return tally


def sminv_count(w: SegmentedSmirnovWord) -> int:
    """len(sminv(w).pairs), without building the tagged report."""
    return sum(_sminv_tally(w.letters, block_starts(w)))


def sdinv(w: SegmentedSmirnovWord) -> InversionReport:
    """Diagonal inversions: pairs (i, j) with w_i > w_j (i may exceed j).

    For i not a peak: right pairs i < j with equal heights at level w_i (and if
    j = i + 1 then j must be initial); left pairs i > j + 1 with height_{w_i}(i)
    = height_{w_i}(j) + 1.  For i a peak: exactly the sminversions (i, j).

    One scan per letter m, as in `sdinv_count`, carries height_m (reset at
    block starts and after a letter > m, raised after a letter < m).  It
    records the height of each m and, in order, each letter below m with its
    height and whether the scan has just been reset (sminv cases 1 and 2) or
    has just passed an m that stood at a reset (cases 3 and 4).  A peak's right
    neighbour is below it in its block, so a peak i pairs exactly with the
    flagged letters below m after i + 1.  One pass over the rows then walks
    the letters below w_i, so the pairs come by i, then j, with no sort.
    `tests/test_stats.py::sdinv_oracle` transcribes the definition pair by pair
    and is the test oracle.
    """
    letters = w.letters
    n = len(letters)
    starts = block_starts(w)
    heights = [0] * n  # heights[k]: height_{w_k}(k)
    lows = {}  # lows[m]: (j, height_m(j), reset) for each j with w_j < m, in order
    positions = list(zip(range(n), letters, starts))  # walked once per letter
    for m in set(letters) - {min(letters, default=0)}:
        below = lows[m] = []
        run = 0
        reset = True
        for k, letter, start in positions:
            if start:
                run = 0
                reset = True
            if letter < m:
                below.append((k, run, reset))
                run += 1
                reset = False
            elif letter > m:
                run = 0
                reset = True
            else:  # an m keeps the reset flag: cases 3 and 4
                heights[k] = run
    pairs = []
    for i, wi, role in zip(range(n), letters, occurrence_roles(w)):
        if wi not in lows:
            continue
        if role == PEAK:
            for j, _, reset in lows[wi]:
                if reset and j > i + 1:
                    pairs.append((i + 1, j + 1, _PEAK))
            continue
        h = heights[i]
        for j, g, _ in lows[wi]:
            if j < i - 1:
                if g == h - 1:
                    pairs.append((i + 1, j + 1, _LEFT))
            elif j > i and g == h and (j > i + 1 or starts[j]):
                pairs.append((i + 1, j + 1, _RIGHT))
    return InversionReport(tuple(pairs))


def sdinv_count(w: SegmentedSmirnovWord) -> int:
    """len(sdinv(w).pairs), without building the tagged report.

    A peak i adds its sminv pairs.  Every other i, with m = w_i, pairs with the
    letters below m: to the right (j > i) at equal height_m, where j = i + 1
    only if j starts a block, and to the left (j < i - 1) one step lower.  One
    scan per letter m carries height_m (reset at block starts and after a
    letter > m, raised after a letter < m) and tallies, by height, the non-peak
    m's and the letters below m seen so far.  Inside a block, a letter below m
    right after a non-peak m has that m's height, and an m right after a letter
    below m is one higher; the tallies count those adjacent pairs, so they are
    taken off again.
    """
    letters = w.letters
    n = len(letters)
    starts = block_starts(w)
    peaks = [code == PEAK for code in occurrence_roles(w)]
    total = 0
    if any(peaks):
        tally = _sminv_tally(letters, starts)
        total = sum(t for t, peak in zip(tally, peaks) if peak)
    for m in set(letters):
        tops = [0] * n  # non-peak m's so far, by height
        lows = [0] * n  # letters below m so far, by height
        run = 0
        prev = 0
        for k in range(n):
            letter = letters[k]
            if starts[k]:
                run = 0
                prev = 0  # no letter before k in its block
            if letter < m:
                total += tops[run]
                if prev == m and not peaks[k - 1]:
                    total -= 1
                lows[run] += 1
                run += 1
            elif letter > m:
                run = 0
            elif not peaks[k]:
                if run:
                    total += lows[run - 1]
                    if prev < m:
                        total -= 1
                tops[run] += 1
            prev = letter
    return total


def stat_distributions(words: Iterable, *stat_fns, key=ascents_descents) -> list:
    """For each statistic, the map key(w) -> QPolynomial of q^stat over the
    words w; one pass over the words serves them all."""
    buckets = [{} for _ in stat_fns]
    for w in words:
        group = key(w)
        for bucket, stat_fn in zip(buckets, stat_fns):
            bucket.setdefault(group, collections.Counter())[stat_fn(w)] += 1
    return [{key: histogram_poly(counts) for key, counts in bucket.items()}
            for bucket in buckets]


class OrderedMultisetPartition(_Record):
    """Sequence of nonempty sorted blocks (multisets allowed; the statistics
    below require genuine sets)."""

    _fields = ("blocks",)

    def __init__(self, blocks: tuple):
        blocks = tuple(map(tuple, blocks))
        for blk in blocks:  # before the sort, which would compare the elements
            if not blk:
                raise ValueError("empty block in ordered multiset partition")
            if not all(type(x) is int and x >= 1 for x in blk):
                raise ValueError("block elements must be positive integers")
        object.__setattr__(self, "blocks", tuple(tuple(sorted(b)) for b in blocks))

    @property
    def r(self) -> int:
        return len(self.blocks)

    def require_set_blocks(self) -> None:
        for blk in self.blocks:
            if len(set(blk)) != len(blk):
                raise ValueError("block %r has repeated elements" % (blk,))

    def __str__(self) -> str:
        return "|".join(",".join(str(x) for x in blk) for blk in self.blocks)


def project(w: SegmentedSmirnovWord) -> OrderedMultisetPartition:
    """Forget the order within each block."""
    return OrderedMultisetPartition(tuple(tuple(sorted(b)) for b in w.blocks))


def omp_inv(p: OrderedMultisetPartition) -> int:
    """Pairs a > min(pi_j) with a in pi_i, i < j."""
    p.require_set_blocks()
    total = 0
    for j in range(1, p.r):
        b = min(p.blocks[j])
        for i in range(j):
            total += sum(1 for a in p.blocks[i] if a > b)
    return total


def omp_dinv(p: OrderedMultisetPartition) -> int:
    """Diagonal-inversion triples (h, i, j): for i < j the h-th smallest of
    pi_i exceeds the h-th smallest of pi_j; for i > j the (h+1)-th smallest of
    pi_i exceeds the h-th smallest of pi_j."""
    p.require_set_blocks()
    blocks = p.blocks
    total = 0
    for i, bi in enumerate(blocks):
        for j, bj in enumerate(blocks):
            if i < j:
                total += sum(1 for h in range(min(len(bi), len(bj)))
                             if bi[h] > bj[h])
            elif i > j:
                total += sum(1 for h in range(len(bj))
                             if len(bi) > h + 1 and bi[h + 1] > bj[h])
    return total
