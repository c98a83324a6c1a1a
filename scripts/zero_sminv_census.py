#!/usr/bin/env python3
"""Census of standard segmented permutations with zero sminv.

These words are conjectured to be characterized as 231-avoiding permutations
whose blocks carry letters smaller than every letter of the blocks to their
right.  The script enumerates them exhaustively and checks the
characterization.  Their count is the q^0 layer of the Hilbert table: the sum
over the cells (k, l) of size n of the constant term of
standard_q_count(n, k, l).  The script prints the observed count next to that
sum, and next to binomial(2n+1, n), which has been proposed as the count but
does not match, and binomial(2n-1, n-1), an index shift of it that does.  It
exits with status 1 when an observed count differs from the Hilbert table's
or the characterization fails.

Usage: python scripts/zero_sminv_census.py [--n-max N]
"""

import argparse
import math
import sys

from smirnov.models import is_231_avoiding
from smirnov.qengine import cells, standard_q_count
from smirnov.stats import sminv_count
from smirnov.words import enumerate_words


def block_increasing(w) -> bool:
    """Every letter of a block is smaller than every letter of later blocks."""
    blocks = w.blocks
    return all(max(blocks[i]) < min(blocks[j])
               for i in range(len(blocks)) for j in range(i + 1, len(blocks)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=8)
    args = parser.parse_args()

    print("%3s %10s %10s %14s %16s %s"
          % ("n", "observed", "hilbert_q0", "binom(2n+1,n)", "binom(2n-1,n-1)",
             "characterization"))
    ok = True
    for n in range(1, args.n_max + 1):
        count = 0
        characterized = True
        for w in enumerate_words((1,) * n):
            zero = sminv_count(w) == 0
            predicted = is_231_avoiding(w.letters) and block_increasing(w)
            if zero != predicted:
                characterized = False
            count += zero
        table = sum(standard_q_count(n, k, l)(0) for k, l in cells(n))
        ok = ok and characterized and count == table
        print("%3d %10d %10d %14d %16d %s"
              % (n, count, table, math.comb(2 * n + 1, n), math.comb(2 * n - 1, n - 1),
                 "ok" if characterized else "FAILS"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
