"""Three classical specializations: the path-graph chromatic enumerator,
area-0 labelled parallelogram polyominoes, and the q=0 theory (231-avoidance,
noncrossing partitions)."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

from .words import SegmentedSmirnovWord


def single_block_words(n: int, bound: int) -> Iterator[tuple]:
    """Letter tuples of Smirnov words of length n over the alphabet 1..bound,
    in lexicographic order.  One letter iterator per position on an explicit
    stack, so no recursion-depth limit applies."""
    if n < 1:
        return
    prefix = []
    stack = [iter(range(1, bound + 1))]
    while stack:
        x = next(stack[-1], None)
        if x is None:
            stack.pop()
            if prefix:
                prefix.pop()
        elif prefix and prefix[-1] == x:
            continue
        elif len(stack) == n:
            yield tuple(prefix) + (x,)
        else:
            prefix.append(x)
            stack.append(iter(range(1, bound + 1)))


def chromatic_path_enumerator(n: int, content_bound: int) -> Dict[int, Counter]:
    """Proper colorings of the path graph on n vertices with colors 1..bound,
    tallied by descent count and monomial exponent vector."""
    if n < 1:
        raise ValueError("the path graph needs at least one vertex")
    out: Dict[int, Counter] = {}
    for letters in single_block_words(n, content_bound):
        descents = sum(1 for i in range(n - 1) if letters[i] > letters[i + 1])
        exps = [0] * content_bound
        for x in letters:
            exps[x - 1] += 1
        out.setdefault(descents, Counter())[tuple(exps)] += 1
    return out


@dataclass(frozen=True)
class LabelledPolyomino:
    """Parallelogram polyomino: upper and lower NE paths on a width x height
    grid with labels on the cells whose left border is an upper north step or
    whose bottom border is a lower east step.  Cells are keyed (col, row),
    0-based."""

    upper: str
    lower: str
    labels: tuple  # sorted ((col, row, value), ...)

    def __post_init__(self):
        labels = tuple(sorted(tuple(cell) for cell in self.labels))
        object.__setattr__(self, "labels", labels)
        up, lo = self.upper, self.lower
        if set(up) - {"N", "E"} or set(lo) - {"N", "E"}:
            raise ValueError("paths must be over {N, E}")
        if up.count("N") != lo.count("N") or up.count("E") != lo.count("E"):
            raise ValueError("paths must share their endpoints")
        if labelled_cells(up, lo) != [cell[:2] for cell in labels]:
            raise ValueError("labels must cover exactly the labelled cells")
        width, height = self.width, self.height
        uy = _strip_heights(up, width)
        ly = _strip_heights(lo, width)
        upper_vertices = set(_vertices(up))
        lower_vertices = set(_vertices(lo))
        shared = upper_vertices & lower_vertices
        if shared != {(0, 0), (width, height)}:
            raise ValueError("upper path must stay strictly above the lower path")
        if any(uy[x] < ly[x] for x in range(width)):
            raise ValueError("upper path must stay above the lower path")
        by_cell = {cell[:2]: cell[2] for cell in labels}
        for (col, row), value in by_cell.items():
            if value < 1:
                raise ValueError("labels must be positive integers")
            if (col, row + 1) in by_cell and by_cell[(col, row + 1)] <= value:
                raise ValueError("column %d labels must increase bottom to top" % col)
            if (col + 1, row) in by_cell and by_cell[(col + 1, row)] >= value:
                raise ValueError("row %d labels must decrease left to right" % row)

    @property
    def width(self) -> int:
        return self.upper.count("E")

    @property
    def height(self) -> int:
        return self.upper.count("N")

    def is_area_zero(self) -> bool:
        """No cell strictly inside beyond the labelled boundary cells."""
        return set(region_cells(self.upper, self.lower)) == {cell[:2] for cell in self.labels}

    def to_json(self) -> dict:
        return {"upper": self.upper, "lower": self.lower,
                "labels": [[col + 1, row + 1, value] for col, row, value in self.labels]}


def labelled_cells(upper: str, lower: str) -> List[tuple]:
    """Sorted cells with an upper north step on the left or a lower east step below."""
    cells = set()
    x = y = 0
    for s in upper:
        if s == "N":
            cells.add((x, y))
            y += 1
        else:
            x += 1
    x = y = 0
    for s in lower:
        if s == "N":
            y += 1
        else:
            cells.add((x, y))
            x += 1
    return sorted(cells)


def region_cells(upper: str, lower: str) -> List[tuple]:
    """All cells weakly between the two paths."""
    width = upper.count("E")
    uy = _strip_heights(upper, width)
    ly = _strip_heights(lower, width)
    return [(x, y) for x in range(width) for y in range(ly[x], uy[x])]


def _strip_heights(path: str, width: int) -> list:
    """Height of the path over each vertical strip [x, x+1]."""
    heights = [None] * width
    x = y = 0
    for s in path:
        if s == "N":
            y += 1
        else:
            heights[x] = y
            x += 1
    return heights


def _vertices(path: str) -> Iterator[tuple]:
    x = y = 0
    yield (0, 0)
    for s in path:
        if s == "N":
            y += 1
        else:
            x += 1
        yield (x, y)


def smirnov_to_polyomino(w) -> LabelledPolyomino:
    """Map a single-block Smirnov word with k ascents to an area-0 labelled
    polyomino of size (n-k) x (k+1): columns are the maximal increasing runs,
    each new column starting at the previous column's top row."""
    if isinstance(w, SegmentedSmirnovWord):
        if len(w.shape) != 1:
            raise ValueError("smirnov_to_polyomino requires a single-block word")
        letters = w.letters
    else:
        letters = tuple(w)
        SegmentedSmirnovWord(letters, (len(letters),))  # validate
    runs = []
    cur = [letters[0]]
    for x in letters[1:]:
        if x > cur[-1]:
            cur.append(x)
        else:
            runs.append(cur)
            cur = [x]
    runs.append(cur)
    bottoms = [0]
    for run in runs[:-1]:
        bottoms.append(bottoms[-1] + len(run) - 1)
    tops = [b + len(run) for b, run in zip(bottoms, runs)]
    height = tops[-1]
    upper = []
    prev = 0
    for t in tops:
        upper.append("N" * (t - prev))
        upper.append("E")
        prev = t
    lower = []
    prev = 0
    for b in bottoms:
        lower.append("N" * (b - prev))
        lower.append("E")
        prev = b
    lower.append("N" * (height - prev))
    labels = tuple((col, b + i, value)
                   for col, (b, run) in enumerate(zip(bottoms, runs))
                   for i, value in enumerate(run))
    return LabelledPolyomino("".join(upper), "".join(lower), labels)


def polyomino_to_word(p: LabelledPolyomino) -> SegmentedSmirnovWord:
    """Read labels bottom to top, left to right; the reading inverse of the map."""
    letters = tuple(value for _, _, value in sorted(p.labels))
    return SegmentedSmirnovWord(letters, (len(letters),))


def enumerate_area0_polyominoes(width: int, height: int, bound: int) -> Iterator[LabelledPolyomino]:
    """Brute-force enumeration, independent of the word bijection: all path
    pairs, filtered to area 0, with all valid labelings over 1..bound."""
    size = width + height
    paths = ["".join("N" if i in north else "E" for i in range(size))
             for north in map(set, itertools.combinations(range(size), height))]
    for upper in paths:
        uv = set(_vertices(upper))
        uy = _strip_heights(upper, width)
        for lower in paths:
            if upper == lower:
                continue
            lv = set(_vertices(lower))
            if uv & lv != {(0, 0), (width, height)}:
                continue
            ly = _strip_heights(lower, width)
            if any(uy[x] < ly[x] for x in range(width)):
                continue
            cells = labelled_cells(upper, lower)
            if set(region_cells(upper, lower)) != set(cells):
                continue
            for values in _labelings(cells, bound):
                yield LabelledPolyomino(
                    upper, lower,
                    tuple((c, r, v) for (c, r), v in zip(cells, values)))


def _labelings(cells: Sequence[tuple], bound: int) -> Iterator[tuple]:
    """Backtracking fill in reading order: columns increase, rows decrease."""
    index = {cell: i for i, cell in enumerate(cells)}

    def rec(acc: tuple):
        i = len(acc)
        if i == len(cells):
            yield acc
            return
        col, row = cells[i]
        lo, hi = 1, bound
        below = index.get((col, row - 1))
        if below is not None:
            lo = max(lo, acc[below] + 1)
        left = index.get((col - 1, row))
        if left is not None:
            hi = min(hi, acc[left] - 1)
        for v in range(lo, hi + 1):
            yield from rec(acc + (v,))

    yield from rec(())


def is_231_avoiding(perm: Sequence[int]) -> bool:
    """No i < j < k with perm_k < perm_i < perm_j."""
    n = len(perm)
    for i in range(n):
        for j in range(i + 1, n):
            if perm[j] <= perm[i]:
                continue
            for k in range(j + 1, n):
                if perm[k] < perm[i]:
                    return False
    return True


def catalan(n: int) -> int:
    """Independent oracle by the convolution recurrence."""
    cs = [1]
    for _ in range(n):
        cs.append(sum(cs[i] * cs[-1 - i] for i in range(len(cs))))
    return cs[n]


@dataclass(frozen=True)
class NoncrossingPartition:
    """Set partition of {1..n} with no a < b < c < d where a, c and b, d lie
    in two different blocks."""

    blocks: tuple

    def __post_init__(self):
        blocks = tuple(sorted(tuple(sorted(b)) for b in self.blocks))
        object.__setattr__(self, "blocks", blocks)
        flat = sorted(x for blk in blocks for x in blk)
        if flat != list(range(1, len(flat) + 1)):
            raise ValueError("blocks must partition {1..n}")
        quadruple = crossing(blocks)
        if quadruple:
            raise ValueError("crossing pair %r" % (quadruple,))

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)


def noncrossing_to_permutation(p: NoncrossingPartition) -> tuple:
    """List blocks by smallest element, each block in decreasing order."""
    out = []
    for blk in sorted(p.blocks, key=min):
        out.extend(sorted(blk, reverse=True))
    return tuple(out)


def permutation_to_noncrossing(perm: Sequence[int]) -> NoncrossingPartition:
    """Blocks are the maximal decreasing runs; raises if they cross."""
    blocks = []
    cur = [perm[0]]
    for x in perm[1:]:
        if x < cur[-1]:
            cur.append(x)
        else:
            blocks.append(tuple(cur))
            cur = [x]
    blocks.append(tuple(cur))
    return NoncrossingPartition(tuple(blocks))


def enumerate_set_partitions(n: int) -> Iterator[tuple]:
    """All set partitions of {1..n} as tuples of sorted tuples.

    Each partition of {1..n-1}, in this order, gives first the one with the
    block (n,) appended, then those with n added to each block in turn.  One
    iterator per element on an explicit stack, so no recursion-depth limit
    applies."""
    if n == 0:
        yield ()
        return
    stack = [iter([()])]  # stack[i] yields the partitions of {1..i}
    while stack:
        blocks = next(stack[-1], None)
        if blocks is None:
            stack.pop()
        elif len(stack) == n:
            yield from _add_element(blocks, n)
        else:
            stack.append(_add_element(blocks, len(stack)))


def _add_element(blocks: tuple, x: int) -> Iterator[tuple]:
    """The partitions with x added to `blocks`, in `enumerate_set_partitions` order."""
    yield blocks + ((x,),)
    for i in range(len(blocks)):
        yield blocks[:i] + (blocks[i] + (x,),) + blocks[i + 1:]


def crossing(blocks: Sequence[Sequence[int]]) -> tuple:
    """The first a < b < c < d with a, c in one block and b, d in another, or ()."""
    block_of = {x: i for i, blk in enumerate(blocks) for x in blk}
    for a, b, c, d in itertools.combinations(sorted(block_of), 4):
        if block_of[a] == block_of[c] != block_of[b] == block_of[d]:
            return (a, b, c, d)
    return ()


def enumerate_noncrossing(n: int) -> Iterator[NoncrossingPartition]:
    for blocks in enumerate_set_partitions(n):
        if not crossing(blocks):
            yield NoncrossingPartition(blocks)
