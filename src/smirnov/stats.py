"""The q-statistics sminv and sdinv, the height function, and the projection
to ordered multiset partitions with the classical inv/dinv."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .words import SegmentedSmirnovWord, classify, letter_content, set_sequences


@dataclass(frozen=True)
class InversionReport:
    """pairs: ((i, j, tags), ...) with 1-based indices; tags list every case that fired."""

    pairs: tuple

    @property
    def count(self) -> int:
        return len(self.pairs)

    def pair_set(self) -> frozenset:
        return frozenset((i, j) for i, j, _ in self.pairs)

    def to_json(self) -> dict:
        return {"count": self.count,
                "pairs": [[i, j, "+".join(tags)] for i, j, tags in self.pairs]}


def sminv(w: SegmentedSmirnovWord) -> InversionReport:
    """Smirnov inversions: pairs i < j with w_i > w_j satisfying one of four cases.

    (1) j initial; (2) w_{j-1} > w_i; (3) i != j-1 and w_{j-1} = w_i with j-1
    initial; (4) i != j-1 and w_{j-2} > w_{j-1} = w_i.
    """
    letters = w.letters
    n = w.n
    initial = w.initial_positions
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
    return InversionReport(tuple(pairs))


def sminv_count(w: SegmentedSmirnovWord) -> int:
    return sminv(w).count


def height_array(w: SegmentedSmirnovWord, m: int) -> tuple:
    """height_m at every position: letters < m since the nearest left barrier
    (block start or a letter > m)."""
    letters = w.letters
    initial = w.initial_positions
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


def height(w: SegmentedSmirnovWord, m: int, i: int) -> int:
    if not 1 <= i <= w.n:
        raise ValueError("index %d out of range" % i)
    return height_array(w, m)[i - 1]


def sdinv(w: SegmentedSmirnovWord) -> InversionReport:
    """Diagonal inversions: pairs (i, j) with w_i > w_j (i may exceed j).

    For i not a peak: right pairs i < j with equal heights at level w_i (and if
    j = i + 1 then j must be initial); left pairs i > j + 1 with height_{w_i}(i)
    = height_{w_i}(j) + 1.  For i a peak: exactly the sminversions (i, j).
    """
    letters = w.letters
    n = w.n
    profile = classify(w)
    initial = w.initial_positions
    sm_pairs = {}
    for i, j, tags in sminv(w).pairs:
        sm_pairs.setdefault(i, []).append(j)
    heights = {m: height_array(w, m) for m in set(letters)}
    pairs = []
    for i in range(1, n + 1):
        wi = letters[i - 1]
        if profile.role(i) == "peak":
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
    return InversionReport(tuple(pairs))


def sdinv_count(w: SegmentedSmirnovWord) -> int:
    return sdinv(w).count


@dataclass(frozen=True)
class OrderedMultisetPartition:
    """Sequence of nonempty sorted blocks (multisets allowed; the statistics
    below require genuine sets)."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(tuple(sorted(b)) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        for blk in blocks:
            if not blk:
                raise ValueError("empty block in ordered multiset partition")
            if any(x < 1 for x in blk):
                raise ValueError("block elements must be positive integers")

    @property
    def r(self) -> int:
        return len(self.blocks)

    def content(self) -> tuple:
        return letter_content([x for blk in self.blocks for x in blk])

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


def enumerate_omp(mu: Sequence[int], r: int = None):
    """Ordered set partitions of the multiset with content mu (blocks are sets);
    optionally restricted to r blocks."""
    for blocks in set_sequences(mu):
        if r is None or len(blocks) == r:
            yield OrderedMultisetPartition(blocks)
