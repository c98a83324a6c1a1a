#!/usr/bin/env python3
"""Print the standard-content Hilbert tables for a range of sizes.

For each n the table lists the q-polynomial in every (k, l) cell with
k + l < n, the trivariate rendering in q, u, v, and the q = 1 total,
which must equal |SW(1^n)|: n! * 2^(n-1), or 1 (the empty word) at n = 0.

Usage: python scripts/hilbert_tables.py [--n-max N] [--json]
"""

import argparse
import json
import math

from smirnov.qengine import hilbert_table, trivariate


def cardinality(n: int) -> int:
    """|SW(1^n)|: n! orders of the letters, each gap cut or not; one empty word."""
    return math.factorial(n) << (n - 1) if n else 1


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n-max", type=int, default=8)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args()

    payload = []
    for n in range(args.n_max + 1):
        table = hilbert_table(n)
        total = sum(poly(1) for poly in table.values())
        expected = cardinality(n)
        if args.json:
            payload.append({
                "n": n,
                "cells": {"%d,%d" % kl: str(poly) for kl, poly in sorted(table.items())},
                "total_at_q1": total,
                "expected_cardinality": expected,
            })
            continue
        print("n = %d" % n)
        for (k, l), poly in sorted(table.items()):
            print("  k=%d l=%d  %s" % (k, l, poly))
        print("  trivariate: %s" % trivariate(table))
        status = "ok" if total == expected else "MISMATCH"
        print("  total at q=1: %d (cardinality %d, %s)" % (total, expected, status))
        print()
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        assert all(sum(poly(1) for poly in hilbert_table(n).values()) == cardinality(n)
                   for n in range(args.n_max + 1))


if __name__ == "__main__":
    main()
