"""Three classical specializations: the path-graph chromatic enumerator,
area-0 labelled parallelogram polyominoes, and the q=0 theory (231-avoidance,
noncrossing partitions)."""

from __future__ import annotations

import bisect
import itertools
import operator
from collections import Counter
from collections.abc import Iterator, Sequence

from .words import SegmentedSmirnovWord, _depth_first, _Record, letter_content


def single_block_words(n: int, bound: int) -> Iterator[tuple]:
    """Letter tuples of Smirnov words of length n over the alphabet 1..bound,
    in lexicographic order."""
    n = operator.index(n)  # a walk to length 1.5 would never end

    def children(word):
        done = len(word) + 1 == n
        for x in range(1, bound + 1):
            if not word or word[-1] != x:
                yield word + (x,), done
    return _depth_first((), children) if n >= 1 else iter(())


def chromatic_path_enumerator(n: int, content_bound: int) -> dict[int, Counter]:
    """Proper colorings of the path graph on n vertices with colors 1..bound,
    tallied by descent count and monomial exponent vector."""
    if n < 1:
        raise ValueError("the path graph needs at least one vertex")
    out: dict[int, Counter] = {}
    for letters in single_block_words(n, content_bound):
        descents = sum(1 for i in range(n - 1) if letters[i] > letters[i + 1])
        out.setdefault(descents, Counter())[letter_content(letters, content_bound)] += 1
    return out


class LabelledPolyomino(_Record):
    """Parallelogram polyomino: upper and lower NE paths on a width x height
    grid with labels on the cells whose left border is an upper north step or
    whose bottom border is a lower east step.  Cells are keyed (col, row),
    0-based."""

    _fields = ("upper", "lower", "labels")  # labels: sorted ((col, row, value), ...)

    def __init__(self, upper: str, lower: str, labels: tuple):
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "lower", lower)
        labels = tuple(map(tuple, labels))
        if not all(len(cell) == 3 and type(cell[0]) is type(cell[1]) is int for cell in labels):
            raise ValueError("each label must be a (col, row, value) triple, "
                             "col and row integers")
        # the values are checked before the sort compares them
        if not all(type(cell[2]) is int and cell[2] >= 1 for cell in labels):
            raise ValueError("labels must be positive integers")
        labels = tuple(sorted(labels))
        object.__setattr__(self, "labels", labels)
        up, lo = self.upper, self.lower
        if not type(up) is type(lo) is str or set(up + lo) - {"N", "E"}:
            raise ValueError("paths must be over {N, E}")
        if up.count("N") != lo.count("N") or up.count("E") != lo.count("E"):
            raise ValueError("paths must share their endpoints")
        if _labelled_cells(up, lo) != [cell[:2] for cell in labels]:
            raise ValueError("labels must cover exactly the labelled cells")
        fault = _gap_fault(up, lo)
        if fault:
            raise ValueError(fault)
        by_cell = {cell[:2]: cell[2] for cell in labels}
        for (col, row), value in by_cell.items():
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
        return _area_zero(self.upper, self.lower)


def _labelled_cells(upper: str, lower: str) -> list[tuple]:
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


def _region_cells(upper: str, lower: str) -> list[tuple]:
    """All cells weakly between the two paths."""
    width = upper.count("E")
    uy = _strip_heights(upper, width)
    ly = _strip_heights(lower, width)
    return [(x, y) for x in range(width) for y in range(ly[x], uy[x])]


def _gap_fault(upper: str, lower: str) -> str:
    """Why the upper path does not stay strictly above the lower one, or "".

    The gap after k steps, 0 < k < their length, is the upper path's north
    steps less the lower path's.  A gap of 0 is a vertex the paths share
    besides their ends; a negative gap means the lower path runs above the
    upper one over some strip."""
    gaps = set(itertools.accumulate((u == "N") - (l == "N")
                                    for u, l in zip(upper[:-1], lower[:-1])))
    if 0 in gaps:
        return "upper path must stay strictly above the lower path"
    if min(gaps, default=0) < 0:
        return "upper path must stay above the lower path"
    return ""


def _area_zero(upper: str, lower: str) -> bool:
    """Every cell between the paths is a labelled cell."""
    return set(_region_cells(upper, lower)) == set(_labelled_cells(upper, lower))


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


def smirnov_to_polyomino(w: SegmentedSmirnovWord) -> LabelledPolyomino:
    """Map a single-block Smirnov word with k ascents to an area-0 labelled
    polyomino of size (n-k) x (k+1): columns are the maximal increasing runs,
    each new column starting at the previous column's top row."""
    if len(w.shape) != 1:
        raise ValueError("smirnov_to_polyomino requires a single-block word")
    runs = []
    for x in w.letters:
        if runs and x > runs[-1][-1]:
            runs[-1].append(x)
        else:
            runs.append([x])
    bottoms = list(itertools.accumulate((len(run) - 1 for run in runs[:-1]), initial=0))
    tops = [b + len(run) for b, run in zip(bottoms, runs)]
    upper = "".join("N" * (t - s) + "E" for s, t in zip([0] + tops, tops))
    lower = "".join("N" * (b - s) + "E" for s, b in zip([0] + bottoms, bottoms))
    labels = tuple((col, b + i, value)
                   for col, (b, run) in enumerate(zip(bottoms, runs))
                   for i, value in enumerate(run))
    return LabelledPolyomino(upper, lower + "N" * (tops[-1] - bottoms[-1]), labels)


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
    for upper, lower in itertools.product(paths, repeat=2):
        if upper == lower or _gap_fault(upper, lower) or not _area_zero(upper, lower):
            continue
        cells = _labelled_cells(upper, lower)
        for values in _labelings(cells, bound):
            yield LabelledPolyomino(upper, lower,
                                    tuple((c, r, v) for (c, r), v in zip(cells, values)))


def _labelings(cells: Sequence[tuple], bound: int) -> Iterator[tuple]:
    """Backtracking fill of the (nonempty) cells in reading order: columns
    increase, rows decrease."""
    index = {cell: i for i, cell in enumerate(cells)}

    def children(acc: tuple):
        i = len(acc)
        col, row = cells[i]
        lo, hi = 1, bound
        below = index.get((col, row - 1))
        if below is not None:
            lo = max(lo, acc[below] + 1)
        left = index.get((col - 1, row))
        if left is not None:
            hi = min(hi, acc[left] - 1)
        done = i + 1 == len(cells)
        for v in range(lo, hi + 1):
            yield acc + (v,), done

    return _depth_first((), children)


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
    if type(n) is not int or n < 0:
        raise ValueError("n must be a nonnegative integer, got %r" % (n,))
    cs = [1]
    for _ in range(n):
        cs.append(sum(cs[i] * cs[-1 - i] for i in range(len(cs))))
    return cs[n]


class NoncrossingPartition(_Record):
    """Set partition of {1..n} with no a < b < c < d where a, c and b, d lie
    in two different blocks."""

    _fields = ("blocks",)

    def __init__(self, blocks: tuple):
        blocks = tuple(map(tuple, blocks))
        for blk in blocks:  # before the sort, which would compare the elements
            if not blk:
                raise ValueError("empty block in noncrossing partition")
            if not all(type(x) is int and x >= 1 for x in blk):
                raise ValueError("block elements must be positive integers")
        blocks = tuple(sorted(tuple(sorted(b)) for b in blocks))
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
    runs = []
    for x in perm:
        if runs and x < runs[-1][-1]:
            runs[-1].append(x)
        else:
            runs.append([x])
    return NoncrossingPartition(tuple(map(tuple, runs)))


def enumerate_set_partitions(n: int) -> Iterator[tuple]:
    """All set partitions of {1..n} as tuples of sorted tuples.

    Each partition of {1..n-1}, in this order, gives first the one with the
    block (n,) appended, then those with n added to each block in turn."""
    n = operator.index(n)  # a walk to n = 1.5 would never end

    def children(node):
        blocks, x = node
        x += 1
        if x == n:
            yield blocks + ((x,),), True
            for i in range(len(blocks)):
                yield blocks[:i] + (blocks[i] + (x,),) + blocks[i + 1:], True
        else:
            yield (blocks + ((x,),), x), False
            for i in range(len(blocks)):
                yield (blocks[:i] + (blocks[i] + (x,),) + blocks[i + 1:], x), False
    return _depth_first(((), 0), children) if n > 0 else iter([()] if n == 0 else [])


def crossing(blocks: Sequence[Sequence[int]]) -> tuple:
    """The a < b < c < d with a, c in one block and b, d in another and the
    smallest c, or ().  Raises ValueError when an element appears twice.

    One scan in increasing order keeps the open blocks on a stack: an
    element c of block B with previous element a either finds B on top or
    finds another block C there, which gives (a, first of C, c, next of C
    after c)."""
    blocks = [sorted(blk) for blk in blocks]
    place = {}
    for i, blk in enumerate(blocks):
        for j, x in enumerate(blk):
            if x in place:
                raise ValueError("element %r appears more than once in the blocks" % (x,))
            place[x] = (i, j)
    open_blocks = []
    for c in sorted(place):
        i, j = place[c]
        blk = blocks[i]
        if j == 0:
            if len(blk) > 1:
                open_blocks.append(i)
        elif open_blocks[-1] != i:
            other = blocks[open_blocks[-1]]
            return (blk[j - 1], other[0], c, other[bisect.bisect(other, c)])
        elif j == len(blk) - 1:
            open_blocks.pop()
    return ()


def enumerate_noncrossing(n: int) -> Iterator[NoncrossingPartition]:
    for blocks in enumerate_set_partitions(n):
        if not crossing(blocks):
            yield NoncrossingPartition(blocks)
