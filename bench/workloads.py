"""The three benchmark workloads: seeded inputs, one timed pass each, oracles.

Every workload is a closed loop with one caller in one thread: the next call
is issued only after the previous one returns.  One pass is the unit of
work whose wall time is "time to a checked answer".  Each pass starts cold:
the q-engine's lru caches are cleared by the caller, a fresh
SfCoefficientTable is made (never the module default table), and word
objects are built afresh, so no cached property survives from a previous
pass.  A `smirnov` CLI invocation pays exactly that cold cost.

An item fails when a call into the program raises or an oracle check fails;
the failure is counted and the item's remaining calls still run, so the work
done does not depend on failures.  The oracles are written here, independent
of the code they check, except where the check *is* the paper's claim that
two parts of the program agree (recursion = enumeration).
"""

from __future__ import annotations

import math
import os
import random
import tempfile
from array import array
from collections import Counter
from functools import lru_cache
from time import perf_counter

from smirnov import paths, qengine, quasisym, stats, words

KNOWN_DEFECT = ("known defect text-parse-singleton: SegmentedSmirnovWord.text() writes a "
                "single-letter block >= 10 without a comma, so parse_word reads '12' as 1,2")

SIZES = {
    "full": {"sweep_n": 6, "qsym_all_n": 4, "qsym_n": 5, "qsym_mirror": (1, 2),
             "table_n": 12, "hilbert_n": 30, "words": 8000, "word_n": (4, 16)},
    "tiny": {"sweep_n": 3, "qsym_all_n": 2, "qsym_n": 3, "qsym_mirror": (0, 1),
             "table_n": 5, "hilbert_n": 6, "words": 200, "word_n": (4, 16)},
}


# --- inputs -----------------------------------------------------------------

def partitions(n: int, cap: int = None):
    """Partitions of n, parts weakly decreasing."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, cap or n), 0, -1):
        for rest in partitions(n - part, part):
            yield (part,) + rest


def random_word(rng: random.Random, n_lo: int, n_hi: int) -> tuple:
    """(letters, shape) sampled directly: letters uniform over an alphabet of
    1..n letters, a cut forced between equal neighbours, other gaps cut with
    probability 1/2.  No candidate is ever rejected."""
    n = rng.randint(n_lo, n_hi)
    alphabet = rng.randint(1, n)
    letters = tuple(rng.randint(1, alphabet) for _ in range(n))
    shape, run = [], 1
    for i in range(1, n):
        if letters[i] == letters[i - 1] or rng.random() < 0.5:
            shape.append(run)
            run = 0
        run += 1
    shape.append(run)
    return letters, tuple(shape)


def make_inputs(workload: str, seed: int, size: str) -> dict:
    """The inputs of one workload; the same seed gives the same inputs."""
    rng = random.Random("%s:%d" % (workload, seed))
    sz = SIZES[size]
    if workload == "theorem-sweep":
        contents = []
        for n in range(sz["sweep_n"] + 1):
            for mu in partitions(n):
                parts = list(mu)
                rng.shuffle(parts)
                contents.append((n, tuple(parts)))
        cells = [(n, k, l) for n in range(1, sz["qsym_all_n"] + 1)
                 for k in range(n) for l in range(n - k)]
        # one cell of the next size and its mirror image, the same for every
        # seed: the cost of a cell there varies almost twofold with (k, l)
        big, (k, l) = sz["qsym_n"], sz["qsym_mirror"]
        cells += [(big, k, l), (big, l, k)]
        return {"contents": contents, "qsym_cells": cells}
    if workload == "coeff-table":
        n = sz["table_n"]
        cells = [(mu, k, l) for mu in partitions(n) for k in range(n) for l in range(n - k)]
        rng.shuffle(cells)
        h = sz["hilbert_n"]
        return {"n": n, "cells": cells, "hilbert_n": h,
                "hilbert_cells": [(k, l) for k in range(h) for l in range(h - k)]}
    if workload == "word-queries":
        lo, hi = sz["word_n"]
        return {"words": [random_word(rng, lo, hi) for _ in range(sz["words"])]}
    raise ValueError("unknown workload %r" % (workload,))


# --- oracles ----------------------------------------------------------------

class Oracles:
    """Expected values computed by the benchmark, not by the program."""

    def hilbert_total(self, n: int) -> int:
        """|SW(1^n)| = n! 2^(n-1): n! letter orders, every gap free to cut."""
        return math.factorial(n) * 2 ** (n - 1)

    def smirnov_word_count(self, mu: tuple) -> int:
        """|SW(mu)| by a transfer DP over letter sequences: an unequal
        adjacency may be cut or not (weight 2), an equal one must be (weight 1)."""
        parts = sorted(p for p in mu if p)
        if not parts:
            return 1
        total = 0
        for c, ways in Counter(parts).items():
            rest = list(parts)
            rest.remove(c)
            total += ways * _sw_tail(tuple(rest), c - 1)
        return total

    def ascents_descents(self, letters: tuple, shape: tuple) -> tuple:
        """1-based in-block ascent and descent positions."""
        asc, desc = set(), set()
        pos = 0
        for part in shape:
            for i in range(pos, pos + part - 1):
                if letters[i + 1] > letters[i]:
                    asc.add(i + 1)
                elif letters[i + 1] < letters[i]:
                    desc.add(i + 1)
            pos += part
        return frozenset(asc), frozenset(desc)


@lru_cache(maxsize=None)
def _sw_tail(others: tuple, last: int) -> int:
    """Weighted ways to finish a letter sequence when `last` copies of the
    previous letter remain and `others` (sorted, no zeros) holds the remaining
    counts of every other letter."""
    if not others and not last:
        return 1
    total = _sw_tail(others, last - 1) if last else 0
    for c, ways in Counter(others).items():
        rest = list(others)
        rest.remove(c)
        if last:
            rest.append(last)
        total += 2 * ways * _sw_tail(tuple(sorted(rest)), c - 1)
    return total


def has_multidigit_singleton(letters: tuple, shape: tuple) -> bool:
    """Whether the word has a one-letter block whose letter is >= 10."""
    pos = 0
    for part in shape:
        if part == 1 and letters[pos] >= 10:
            return True
        pos += part
    return False


def _dense(counts: Counter) -> tuple:
    """Coefficient tuple of sum_v counts[v] q^v (counts has no zero values)."""
    if not counts:
        return ()
    out = [0] * (max(counts) + 1)
    for v, c in counts.items():
        out[v] = c
    return tuple(out)


# --- host speed -------------------------------------------------------------

PROBE_EVERY_S = 0.025


def reference_work() -> int:
    """A fixed piece of interpreter work that calls nothing in the program:
    tuples, sorting and dict counting, like the program's own inner loops.
    Timed between segments of a pass, it tells how fast the host runs at
    that moment."""
    counts = Counter()
    for i in range(400):
        t = (i % 7, i % 5, i % 3)
        counts[t] += 1
        counts[tuple(sorted(t))] += 1
    return len(counts)


# --- one run's accounting ---------------------------------------------------

class Run:
    """What the passes of one run share: tracer, oracles, counters.

    The item tallies, `wall`, `latencies` and `reference` belong to the
    current pass.  The pass is cut into consecutive segments by `lap()`; every
    timed item is a segment of its own.  Between two segments, once every
    PROBE_EVERY_S, `lap()` times `reference_work()`; that time goes into
    `reference` and is left out of `wall` and of every latency.
    """

    def __init__(self, tracer, oracles: Oracles, tmp_root: str):
        self.tracer = tracer
        self.oracles = oracles
        self.tmp_root = tmp_root
        self.failure_examples = []
        self.counters = {}           # per-layer counts of the latest pass
        self.start_pass()

    def start_pass(self) -> None:
        """Reset the per-pass state and start the pass's first segment."""
        self.wall = 0.0              # seconds of the pass so far, probes left out
        self.latencies = array("d")  # seconds, one per timed item
        self.reference = array("d")  # seconds, one per reference_work() probe
        self.attempted = 0
        self.failed = 0
        self.failed_known = 0        # failures explained by KNOWN_DEFECT alone
        self.failed_by_layer = Counter()
        self._last = perf_counter()
        self._next_probe = self._last + PROBE_EVERY_S

    def lap(self) -> float:
        """End the current segment and start the next; the ended one's seconds."""
        t = perf_counter()
        seconds = t - self._last
        self.wall += seconds
        if t >= self._next_probe:
            t = self.probe()
            self._next_probe = t + PROBE_EVERY_S
        self._last = t
        return seconds

    def probe(self) -> float:
        """Time reference_work() once; returns the clock at its end."""
        t0 = perf_counter()
        reference_work()
        t = perf_counter()
        self.reference.append(t - t0)
        return t

    def time_item(self) -> None:
        """End a timed item's segment (begun by `lap()`) and record its latency."""
        self.latencies.append(self.lap())

    def call(self, reasons: list, name: str, fn, *args):
        """Call into a layer inside a span; a raise becomes a failure reason."""
        try:
            return self.tracer.call(name, fn, *args)
        except Exception as exc:  # the run must go on and count it
            reasons.append((name.split(".")[0], "%s raised %r" % (name, exc), False))
            return None

    def record(self, reasons: list) -> None:
        self.attempted += 1
        if not reasons:
            return
        self.failed += 1
        if all(known for _, _, known in reasons):
            self.failed_known += 1
        for layer in {layer for layer, _, _ in reasons}:
            self.failed_by_layer[layer] += 1
        message = "; ".join(msg for _, msg, _ in reasons)
        if len(self.failure_examples) < 5 and message not in self.failure_examples:
            self.failure_examples.append(message)


# --- theorem-sweep ----------------------------------------------------------

def theorem_sweep(inputs: dict, run: Run) -> None:
    """Main theorem and equidistribution over every content with n <= 6, then
    the fundamental-to-monomial check.  Items: words (timed) and quasisym cells."""
    tr = run.tracer
    table = qengine.SfCoefficientTable()
    enumerated = 0
    for n, mu in inputs["contents"]:
        content_reasons = []
        ws = run.call(content_reasons, "words.enumerate_words",
                      lambda: list(words.enumerate_words(mu))) or ()
        enumerated += len(ws)
        run.lap()
        sm, sd = {}, {}
        word_reasons = []
        item0 = run.attempted
        for idx, w in enumerate(ws):
            tr.begin("bench.item", item0 + idx)
            reasons = []
            a = run.call(reasons, "stats.sminv_count", stats.sminv_count, w)
            b = run.call(reasons, "stats.sdinv_count", stats.sdinv_count, w)
            asc = run.call(reasons, "words.ascent_positions", w.ascent_positions)
            desc = run.call(reasons, "words.descent_positions", w.descent_positions)
            if not reasons:
                key = (len(asc), len(desc))
                sm.setdefault(key, Counter())[a] += 1
                sd.setdefault(key, Counter())[b] += 1
            tr.end()
            run.time_item()
            word_reasons.append(reasons)
        cells = [(0, 0)] if n == 0 else [(k, l) for k in range(n) for l in range(n - k)]
        for k, l in cells:
            rec = run.call(content_reasons, "qengine.sf_h_coefficient",
                           qengine.sf_h_coefficient, n, k, l, mu, table)
            if rec is not None and rec.coeffs != _dense(sm.get((k, l), Counter())):
                content_reasons.append((None, "mu=%s k=%d l=%d recursion %s != enumeration"
                                        % (mu, k, l, rec), False))
        for k, l in sm:
            if n > 0 and k + l >= n:
                content_reasons.append((None, "mu=%s has words with k+l >= n" % (mu,), False))
        for key in set(sm) | set(sd):
            if _dense(sm.get(key, Counter())) != _dense(sd.get(key, Counter())):
                content_reasons.append((None, "mu=%s (k,l)=%s sminv and sdinv distributions "
                                        "differ" % (mu, key), False))
        if not ws:
            run.record(content_reasons or [(None, "mu=%s has no words" % (mu,), False)])
        for reasons in word_reasons:
            run.record(reasons + content_reasons)
        run.lap()
    for n, k, l in inputs["qsym_cells"]:
        reasons = []
        terms = run.call(reasons, "quasisym.fundamental_expansion",
                         quasisym.fundamental_expansion, n, k, l)
        for bound in range(1, n + 1):
            lhs = None if terms is None else run.call(
                reasons, "quasisym.expand_to_monomials", quasisym.expand_to_monomials, terms, bound)
            rhs = run.call(reasons, "quasisym.direct_monomial_sum",
                           quasisym.direct_monomial_sum, n, k, l, bound)
            if lhs is not None and rhs is not None and \
                    {e: p.coeffs for e, p in lhs.items()} != {e: p.coeffs for e, p in rhs.items()}:
                reasons.append((None, "n=%d k=%d l=%d bound=%d monomial expansion != direct sum"
                                % (n, k, l, bound), False))
            run.lap()
        run.record(reasons)
    run.counters.update({"words.enumerate_words.words": enumerated,
                         "qengine.memo_entries": len(table.memo)})


# --- coeff-table ------------------------------------------------------------

def coeff_table(inputs: dict, run: Run) -> None:
    """The cold h-coefficient table, the Hilbert table, and the memo's
    dump/load round trip.  Items: cold cell queries (timed)."""
    tr = run.tracer
    n, hn = inputs["n"], inputs["hilbert_n"]
    table = qengine.SfCoefficientTable()
    cold, cell_reasons = {}, {}
    run.lap()
    for mu, k, l in inputs["cells"]:
        tr.begin("bench.item", run.attempted + len(cold))
        reasons = cell_reasons[(mu, k, l)] = []
        cold[(mu, k, l)] = run.call(reasons, "qengine.sf_h_coefficient",
                                    qengine.sf_h_coefficient, n, k, l, mu, table)
        tr.end()
        run.time_item()
    hil, hil_reasons = {}, {}
    for k, l in inputs["hilbert_cells"]:
        tr.begin("bench.item", run.attempted + len(cold) + len(hil))
        reasons = hil_reasons[(k, l)] = []
        hil[(k, l)] = run.call(reasons, "qengine.standard_q_count",
                               qengine.standard_q_count, hn, k, l)
        tr.end()
        run.time_item()
    run.counters["qengine.memo_entries"] = len(table.memo)

    reload_reasons = []
    os.makedirs(run.tmp_root, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.tmp_root) as tmp:
        path = os.path.join(tmp, "memo.json")
        run.call(reload_reasons, "qengine.SfCoefficientTable.dump", table.dump, path)
        run.counters["qengine.memo_bytes"] = os.path.getsize(path) if not reload_reasons else 0
        run.lap()
        loaded = qengine.SfCoefficientTable()
        run.call(reload_reasons, "qengine.SfCoefficientTable.load", loaded.load, path)
        run.lap()
    if {key: p.coeffs for key, p in loaded.memo.items()} != \
            {key: p.coeffs for key, p in table.memo.items()}:
        reload_reasons.append(("qengine", "reloaded memo differs from the cold one", False))
    for (mu, k, l), value in cold.items():
        reasons = cell_reasons[(mu, k, l)]
        warm = run.call(reasons, "qengine.sf_h_coefficient[warm]",
                        qengine.sf_h_coefficient, n, k, l, mu, loaded)
        if value is not None and warm is not None and warm.coeffs != value.coeffs:
            reasons.append(("qengine", "mu=%s k=%d l=%d warm != cold" % (mu, k, l), False))
        run.lap()

    totals = Counter()
    for (mu, k, l), value in cold.items():
        if value is not None:
            totals[mu] += sum(value.coeffs)
        if mu == (1,) * n:
            std = run.call(cell_reasons[(mu, k, l)], "qengine.standard_q_count[oracle]",
                           qengine.standard_q_count, n, k, l)
            if value is not None and std is not None and value.coeffs != std.coeffs:
                cell_reasons[(mu, k, l)].append(
                    (None, "k=%d l=%d h-coefficient at 1^%d != standard_q_count" % (k, l, n),
                     False))
    for mu in totals:
        expected = run.oracles.smirnov_word_count(mu)
        if totals[mu] != expected:
            for (mu2, k, l), reasons in cell_reasons.items():
                if mu2 == mu:
                    reasons.append((None, "mu=%s sum at q=1 is %d, |SW(mu)| = %d"
                                    % (mu, totals[mu], expected), False))
    hil_total = sum(sum(p.coeffs) for p in hil.values() if p is not None)
    if hil_total != run.oracles.hilbert_total(hn):
        for reasons in hil_reasons.values():
            reasons.append((None, "Hilbert total at q=1 for n=%d is %d, expected %d"
                            % (hn, hil_total, run.oracles.hilbert_total(hn)), False))
    for reasons in cell_reasons.values():
        run.record(reasons + reload_reasons)
    for reasons in hil_reasons.values():
        run.record(reasons)


# --- word-queries -----------------------------------------------------------

def word_queries(inputs: dict, run: Run) -> None:
    """One word at a time through the validating constructors and the tagged
    reports, as `smirnov stat` does.  Items: words (timed)."""
    tr, call, oracles = run.tracer, run.call, run.oracles
    for letters, shape in inputs["words"]:
        run.lap()
        tr.begin("bench.item", run.attempted)
        reasons = []
        _query_word(letters, shape, reasons, call, oracles)
        tr.end()
        run.time_item()
        run.record(reasons)


def _query_word(letters, shape, reasons, call, oracles) -> None:
    w = call(reasons, "words.SegmentedSmirnovWord", words.SegmentedSmirnovWord, letters, shape)
    if w is None:
        return
    asc, desc = oracles.ascents_descents(letters, shape)

    trip = []
    text = call(trip, "words.text", w.text)
    back = call(trip, "words.parse_word", words.parse_word, text) if text is not None else None
    if trip or (back.letters, back.shape) != (letters, shape):
        if has_multidigit_singleton(letters, shape):
            reasons.append(("words", KNOWN_DEFECT, True))
        else:
            reasons.extend(trip or [("words", "parse_word(text(%r, %r)) gave %s"
                                     % (letters, shape, back), False)])

    report = call(reasons, "stats.sminv", stats.sminv, w)
    count = call(reasons, "stats.sminv_count", stats.sminv_count, w)
    if report is not None and count is not None and report.count != count:
        reasons.append(("stats", "sminv report has %d pairs, sminv_count %d"
                        % (report.count, count), False))
    call(reasons, "stats.sdinv", stats.sdinv, w)

    profile = call(reasons, "words.classify", words.classify, w)
    if profile is not None and (profile.ascents, profile.descents) != (asc, desc):
        reasons.append(("words", "classify ascents/descents wrong for %s" % (w,), False))

    split = call(reasons, "words.extract_maximal", words.extract_maximal, w)
    if split is not None:
        wp, rec = split
        back = call(reasons, "words.insert_many", words.insert_many,
                    wp, rec.m, rec.peaks, rec.rises, rec.falls, rec.gaps)
        if back is not None and (back.letters, back.shape) != (letters, shape):
            reasons.append(("words", "insert_many(extract_maximal) round trip fails", False))

    path = call(reasons, "paths.phi", paths.phi, w)
    if path is not None:
        back = call(reasons, "paths.phi_inverse", paths.phi_inverse, path)
        if back is not None and (back.letters, back.shape) != (letters, shape):
            reasons.append(("paths", "phi_inverse(phi) round trip fails", False))

    sigma = call(reasons, "quasisym.standardize", quasisym.standardize, w)
    if sigma is not None:
        if sorted(sigma.letters) != list(range(1, len(letters) + 1)) or sigma.shape != shape \
                or oracles.ascents_descents(sigma.letters, sigma.shape) != (asc, desc):
            reasons.append(("quasisym", "standardize changes the shape or the "
                            "ascent/descent sets", False))
        sig_report = call(reasons, "stats.sminv", stats.sminv, sigma)
        if report is not None and sig_report is not None and \
                {(i, j) for i, j, _ in sig_report.pairs} != {(i, j) for i, j, _ in report.pairs}:
            reasons.append(("quasisym", "standardize changes the sminv pair set", False))
        split_values = call(reasons, "quasisym.split_set", quasisym.split_set, sigma)
        if split_values is not None and not split_values <= set(range(1, len(letters))):
            reasons.append(("quasisym", "split set outside 1..n-1", False))


PASSES = {"theorem-sweep": theorem_sweep, "coeff-table": coeff_table,
          "word-queries": word_queries}
