"""Verification suites confronting the algebraic recursion with independent
enumeration, bijections, insertion lemmas, quasisymmetric expansions, and the
classical models.  Used by the CLI and by the acceptance tests."""

from __future__ import annotations

import functools
import itertools
import os
import random
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, List, NamedTuple

from . import models, paths, quasisym
from .qengine import (QPolynomial, cells, histogram_poly, q_binomial, sf_h_coefficient,
                      standard_q_count)
from .stats import (enumerate_omp, omp_dinv, omp_inv, project,
                    sdinv_count, sminv, sminv_count)
from .words import (INSERTION_KINDS, SegmentedSmirnovWord, enumerate_words, insert_many,
                    partitions_of, shapes_for, words_of_length)


@dataclass(frozen=True)
class CaseResult:
    key: str
    ok: bool
    witness: str = ""
    elapsed: float = 0.0  # seconds, measured in the process that ran the case


@dataclass
class VerificationReport:
    suite: str
    n_max: int
    cases: List[CaseResult] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> int:
        return sum(1 for c in self.cases if c.ok)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.cases if not c.ok)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "n_max": self.n_max,
            "passed": self.passed,
            "failed": self.failed,
            "elapsed": round(self.elapsed, 3),
            "cases": [{"key": c.key, "status": "pass" if c.ok else "fail",
                       "witness": c.witness, "elapsed": round(c.elapsed, 6)}
                      for c in self.cases],
        }


def worker_count() -> int:
    """Worker processes from SMIRNOV_THREADS (default 1); anything but a positive
    integer is rejected."""
    raw = os.environ.get("SMIRNOV_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError("SMIRNOV_THREADS must be a positive integer, got %r" % raw)
    return workers


def _timed(task: tuple) -> CaseResult:
    fn, args = task
    start = time.perf_counter()
    result = fn(args)
    return replace(result, elapsed=time.perf_counter() - start)


def _run_cases(tasks: List[tuple]) -> List[CaseResult]:
    """Run (case function, args) tasks, through one process pool when
    SMIRNOV_THREADS > 1; each case is timed where it runs.  The results come
    back sorted by key."""
    workers = worker_count()
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_timed, tasks))
    else:
        results = [_timed(task) for task in tasks]
    return sorted(results, key=lambda c: c.key)


def _distributions(mu: tuple, *stat_fns) -> list:
    """For each statistic, the map (k, l) -> QPolynomial of q^stat over
    SW(mu, k, l); one pass over the words serves them all."""
    buckets = [{} for _ in stat_fns]
    for w in enumerate_words(mu):
        key = (len(w.ascent_positions()), len(w.descent_positions()))
        for bucket, stat_fn in zip(buckets, stat_fns):
            bucket.setdefault(key, Counter())[stat_fn(w)] += 1
    return [{key: histogram_poly(counts) for key, counts in bucket.items()}
            for bucket in buckets]


def _mismatch(n: int, dist: dict, recursion: Callable) -> str:
    """Where recursion(k, l) and the enumerator dist of a content of size n
    differ: the first cell of size n, or a cell outside them that holds words;
    "" when they agree."""
    inside = cells(n)
    for k, l in inside:
        rec, enum = recursion(k, l), dist.get((k, l), QPolynomial.zero())
        if rec != enum:
            return "k=%d l=%d recursion=%s enumeration=%s" % (k, l, rec, enum)
    outside = sorted(kl for kl, poly in dist.items() if poly and kl not in inside)
    return "words found outside the cells at (k,l)=%s" % (outside[0],) if outside else ""


# --- main-theorem suite -----------------------------------------------------

def _case_main_mu(mu: tuple) -> CaseResult:
    n = sum(mu)
    [dist] = _distributions(mu, sminv_count)
    witness = _mismatch(n, dist, lambda k, l: sf_h_coefficient(n, k, l, mu))
    return CaseResult("main-theorem mu=%s" % (mu,), not witness, witness)


def _case_standard(n: int) -> CaseResult:
    """The standard recursion and the general one against the enumeration of
    1^n; the standard recursion must also vanish on the cells k + l = n."""
    [dist] = _distributions((1,) * n, sminv_count)
    standard = functools.partial(standard_q_count, n)
    edge = [(k, n - k) for k in range(n + 1)] if n else []  # k + l = n: no block, no word
    witness = (_mismatch(n, dist, standard)
               or _mismatch(n, dist, lambda k, l: sf_h_coefficient(n, k, l, (1,) * n))
               or next(("k=%d l=%d recursion=%s, not 0" % (k, l, standard(k, l))
                        for k, l in edge if standard(k, l)), ""))
    return CaseResult("standard-case n=%d" % n, not witness, witness)


def _case_symmetry(mu: tuple) -> CaseResult:
    key = "symmetry mu=%s" % (mu,)
    first, *rest = sorted(set(itertools.permutations(mu)), reverse=True)  # mu sorted first
    [reference] = _distributions(first, sminv_count)
    for perm in rest:
        [dist] = _distributions(perm, sminv_count)
        if dist != reference:
            return CaseResult(key, False, "rearrangement %s changes the enumerator" % (perm,))
    return CaseResult(key, True)


def _case_q_chu_vandermonde(bound: int) -> CaseResult:
    key = "q-chu-vandermonde bound=%d" % bound
    for j in range(bound + 1):
        for a in range(j + 1):
            for r in range(j + 1):
                rhs = QPolynomial.zero()
                for i in range(j + 1):
                    term = q_binomial(r, i) * q_binomial(j - r, a - i)
                    rhs = rhs + term.times_q_power((r - i) * (a - i))
                if q_binomial(j, a) != rhs:
                    return CaseResult(key, False, "j=%d a=%d r=%d" % (j, a, r))
    return CaseResult(key, True)


def _case_trinomial(bound: int) -> CaseResult:
    key = "trinomial bound=%d" % bound
    for x in range(bound + 1):
        for y in range(x + 1):
            for z in range(y + 1):
                lhs = q_binomial(x, y) * q_binomial(y, z)
                rhs = q_binomial(x, x - y + z) * q_binomial(x - y + z, z)
                if lhs != rhs:
                    return CaseResult(key, False, "x=%d y=%d z=%d" % (x, y, z))
    return CaseResult(key, True)


def _main_theorem_tasks(n_max: int, *_) -> List[tuple]:
    tasks = []
    for n in range(n_max + 1, -1, -1):
        tasks.append((_case_standard, n))
        if n <= n_max:
            tasks += [(_case_main_mu, mu) for mu in partitions_of(n)]
        if n <= min(n_max, 6):
            tasks += [(_case_symmetry, mu) for mu in partitions_of(n) if len(set(mu)) > 1]
    return tasks + [(_case_q_chu_vandermonde, 8), (_case_trinomial, 10)]


# --- equidistribution suite -------------------------------------------------

def _case_equidistribution(mu: tuple) -> CaseResult:
    key = "equidistribution mu=%s" % (mu,)
    lhs, rhs = _distributions(mu, sminv_count, sdinv_count)
    if lhs != rhs:
        diff = [kl for kl in set(lhs) | set(rhs)
                if lhs.get(kl, QPolynomial.zero()) != rhs.get(kl, QPolynomial.zero())]
        return CaseResult(key, False, "distributions differ at (k,l)=%s" % (sorted(diff),))
    return CaseResult(key, True)


def _equidistribution_tasks(n_max: int, *_) -> List[tuple]:
    return [(_case_equidistribution, mu)
            for n in range(n_max, -1, -1) for mu in partitions_of(n)]


# --- bijection suite --------------------------------------------------------

def _case_bijection_mu(mu: tuple) -> CaseResult:
    n = sum(mu)
    key = "bijection mu=%s" % (mu,)
    images = {}
    unified_sums: dict = {}
    for w in enumerate_words(mu):
        D = paths.phi(w)
        k, l = len(w.ascent_positions()), len(w.descent_positions())
        if D.content() != w.content() or D.rise_count() != k or D.valley_count() != l:
            return CaseResult(key, False, "decorations not transported for %s" % w)
        if paths.phi_inverse(D) != w:
            return CaseResult(key, False, "round trip fails for %s" % w)
        if D in images:
            return CaseResult(key, False, "phi not injective: %s and %s" % (w, images[D]))
        images[D] = w
        unified_sums.setdefault((k, l), Counter())[sdinv_count(w)] += 1
    all_paths = set()
    for D in paths.enumerate_area0(mu):
        if D in all_paths:
            return CaseResult(key, False, "duplicate path in enumeration: %s" % D)
        all_paths.add(D)
        if paths.phi(paths.phi_inverse(D)) != D:
            return CaseResult(key, False, "path round trip fails for %s" % D)
    if all_paths != set(images):
        return CaseResult(key, False, "phi is not onto the area-0 paths of content %s" % (mu,))
    witness = _mismatch(n, {kl: histogram_poly(counts) for kl, counts in unified_sums.items()},
                        lambda k, l: sf_h_coefficient(n, k, l, mu))
    if witness:
        return CaseResult(key, False, "unified dinv sum: " + witness)
    for D, w in images.items():
        k, l = D.rise_count(), D.valley_count()
        if (k == 0 or l == 0) and paths.unified_dinv(D) != paths.path_dinv(D):
            return CaseResult(key, False,
                              "classical dinv mismatch on %s (k=%d l=%d)" % (D, k, l))
    return CaseResult(key, True)


def _case_projection_mu(mu: tuple) -> CaseResult:
    n = sum(mu)
    key = "projection mu=%s" % (mu,)
    by_kl: dict = {}
    for w in enumerate_words(mu):
        by_kl.setdefault((len(w.ascent_positions()), len(w.descent_positions())), []).append(w)
    for (k, l), words in sorted(by_kl.items()):
        # l = 0 projects onto OP(mu, n - k) with sdinv -> dinv, k = 0 onto
        # OP(mu, n - l) with sdinv -> inv; sminv goes to inv in both
        for other, blocks, sdinv_image in ((l, n - k, omp_dinv), (k, n - l, omp_inv)):
            if other:
                continue
            images = set()
            for w in words:
                p = project(w)
                images.add(p.blocks)
                if (sminv_count(w), sdinv_count(w)) != (omp_inv(p), sdinv_image(p)):
                    return CaseResult(key, False, "statistics not carried over for %s" % w)
            target = {p.blocks for p in enumerate_omp(mu, blocks)}
            if len(images) != len(words) or images != target:
                return CaseResult(key, False, "projection at k=%d l=%d not bijective onto "
                                  "OP(mu, %d)" % (k, l, blocks))
    return CaseResult(key, True)


def _bijection_tasks(n_max: int, *_) -> List[tuple]:
    tasks = []
    for n in range(n_max + 1, -1, -1):
        if n <= n_max:
            tasks += [(_case_bijection_mu, mu) for mu in partitions_of(n)]
        if n <= min(n_max + 1, 6):
            tasks += [(_case_projection_mu, mu) for mu in partitions_of(n)]
    return tasks


# --- insertion-lemmas suite -------------------------------------------------

def _random_word(rng: random.Random, n_max: int) -> SegmentedSmirnovWord:
    n = rng.randint(2, n_max)
    alphabet = rng.randint(2, max(2, n - 1))
    letters = tuple(rng.randint(1, alphabet) for _ in range(n))
    return SegmentedSmirnovWord(letters, rng.choice(list(shapes_for(letters))))


def _insertion_enumerator(w, m, kind, s, stat_fn) -> QPolynomial:
    """The sum of q^stat over the ways to insert s letters m of one kind into w."""
    blocks = len(w.shape)
    if kind == "singleton":  # a multiset of s gaps among the blocks + 1
        images = (insert_many(w, m, gaps=[placement.count(g) for g in range(blocks + 1)])
                  for placement in itertools.combinations_with_replacement(range(blocks + 1), s))
    else:  # a set of s sites
        arg, sites = {"peak": ("peaks", range(1, blocks)),
                      "double_fall": ("falls", range(1, blocks + 1)),
                      "double_rise": ("rises", range(1, blocks + 1))}[kind]
        images = (insert_many(w, m, **{arg: subset})
                  for subset in itertools.combinations(sites, s))
    return histogram_poly(Counter(map(stat_fn, images)))


def _expected_enumerator(kind: str, B: int, s: int) -> QPolynomial:
    if kind == "peak":
        return q_binomial(B - 1, s)
    if kind in ("double_fall", "double_rise"):
        return q_binomial(B, s).times_q_power(s * (s - 1) // 2)
    return q_binomial(B + s, s)


def _case_insertion(args: tuple) -> CaseResult:
    kind, batch, count, seed, n_max = args
    key = "insertion %s batch=%d" % (kind, batch)
    rng = random.Random("%d:%s:%d" % (seed, kind, batch))
    for _ in range(count):
        w = _random_word(rng, n_max)
        mx = max(w.letters)
        m = mx + 1
        if kind != "peak" and rng.random() < 0.5:
            if kind == "double_fall" and all(b[0] != mx for b in w.blocks):
                m = mx
            elif kind == "double_rise" and all(b[-1] != mx for b in w.blocks):
                m = mx
            elif kind == "singleton" and all(b != (mx,) for b in w.blocks):
                m = mx
        B = len(w.shape)
        max_s = B - 1 if kind == "peak" else (B if kind != "singleton" else B + 1)
        s = rng.randint(0, max(0, min(max_s, 4)))
        expected_shape = _expected_enumerator(kind, B, s)
        for stat_fn, name in ((sminv_count, "sminv"), (sdinv_count, "sdinv")):
            got = _insertion_enumerator(w, m, kind, s, stat_fn)
            expected = expected_shape.times_q_power(stat_fn(w))
            if got != expected:
                return CaseResult(key, False,
                                  "w=%s m=%d s=%d stat=%s got=%s expected=%s"
                                  % (w, m, s, name, got, expected))
    return CaseResult(key, True)


def _insertion_tasks(n_max: int, instances: int, seed: int) -> List[tuple]:
    batch_size = 50
    return [(_case_insertion,
             (kind, start // batch_size, min(batch_size, instances - start), seed, n_max))
            for kind in INSERTION_KINDS
            for start in range(0, instances, batch_size)]


# --- quasisym suite ---------------------------------------------------------

def _case_expansion(args: tuple) -> CaseResult:
    n, k, l = args
    key = "expansion n=%d k=%d l=%d" % (n, k, l)
    terms = quasisym.fundamental_expansion(n, k, l)
    for bound in range(1, n + 1):
        lhs = quasisym.expand_to_monomials(terms, bound)
        rhs = quasisym.direct_monomial_sum(n, k, l, bound)
        if lhs != rhs:
            return CaseResult(key, False, "monomial expansions differ at bound=%d" % bound)
    return CaseResult(key, True)


def _case_standardization(args: tuple) -> CaseResult:
    n, bound = args
    key = "standardization n=%d bound=%d" % (n, bound)
    for w in words_of_length(n, bound):
        sigma = quasisym.standardize(w)
        if sorted(sigma.letters) != list(range(1, n + 1)) or sigma.shape != w.shape:
            return CaseResult(key, False, "st(%s) = %s is not a segmented permutation"
                              % (w, sigma))
        if (w.ascent_positions() != sigma.ascent_positions()
                or w.descent_positions() != sigma.descent_positions()
                or sminv(w).pair_set() != sminv(sigma).pair_set()):
            return CaseResult(key, False, "st does not preserve statistics on %s" % w)
    return CaseResult(key, True)


def _case_fiber(n: int) -> CaseResult:
    key = "fiber n=%d" % n
    sigmas = list(enumerate_words((1,) * n))
    by_shape: dict = {}
    for sigma in sigmas:
        by_shape.setdefault(sigma.shape, []).append(sigma)
    for w in words_of_length(n, n):
        sigma = quasisym.standardize(w)
        for cand in by_shape.get(w.shape, ()):
            if quasisym.fiber_condition(cand, w) != (cand == sigma):
                return CaseResult(key, False,
                                  "fiber condition disagrees for w=%s sigma=%s" % (w, cand))
    return CaseResult(key, True)


def _quasisym_tasks(n_max: int, *_) -> List[tuple]:
    tasks = []
    for n in range(n_max + 1, 0, -1):
        if n <= n_max:
            tasks += [(_case_expansion, (n, k, l)) for k, l in cells(n)]
        if n <= min(n_max + 1, 6):
            tasks.append((_case_standardization, (n, min(4, n))))
        if n <= min(n_max, 4):
            tasks.append((_case_fiber, n))
    return tasks


# --- models suite -----------------------------------------------------------

def _case_avoidance(n: int) -> CaseResult:
    key = "231-avoidance n=%d" % n
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        word = SegmentedSmirnovWord(perm, (n,))
        zero = sminv_count(word) == 0
        if zero != models.is_231_avoiding(perm):
            return CaseResult(key, False, "mismatch at %s" % (perm,))
        count += zero
    if count != models.catalan(n):
        return CaseResult(key, False, "count %d != Catalan %d" % (count, models.catalan(n)))
    return CaseResult(key, True)


def _case_noncrossing(n: int) -> CaseResult:
    key = "noncrossing n=%d" % n
    descents = {perm: sum(a > b for a, b in zip(perm, perm[1:]))
                for perm in itertools.permutations(range(1, n + 1))
                if models.is_231_avoiding(perm)}
    partitions_by_blocks: Counter = Counter()
    images = set()
    for p in models.enumerate_noncrossing(n):
        perm = models.noncrossing_to_permutation(p)
        if perm not in descents:
            return CaseResult(key, False, "image %s is not a 231-avoiding permutation" % (perm,))
        if models.permutation_to_noncrossing(perm) != p:
            return CaseResult(key, False, "decreasing runs do not invert %s" % (p.blocks,))
        # blocks are decreasing runs, junctions are ascents: n - #blocks descents
        if descents[perm] != n - len(p.blocks):
            return CaseResult(key, False, "image of %s has %d descents"
                              % (p.blocks, descents[perm]))
        images.add(perm)
        partitions_by_blocks[len(p.blocks)] += 1
    if images != set(descents):
        return CaseResult(key, False, "images are not exactly the 231-avoiders")
    # Narayana refinement: as many partitions with l+1 blocks as avoiders with l descents
    avoiders_by_descents = Counter(descents.values())
    for l in range(n):
        if partitions_by_blocks[l + 1] != avoiders_by_descents[l]:
            return CaseResult(key, False, "Narayana refinement fails at %d descents" % l)
    return CaseResult(key, True)


def _case_polyomino(n: int) -> CaseResult:
    key = "polyomino n=%d" % n
    images: dict = {}
    for letters in models.single_block_words(n, n):
        w = SegmentedSmirnovWord(letters, (n,))
        k = len(w.ascent_positions())
        p = models.smirnov_to_polyomino(w)
        if (p.width, p.height) != (n - k, k + 1):
            return CaseResult(key, False, "size mismatch for %s" % w)
        if not p.is_area_zero():
            return CaseResult(key, False, "image of %s has positive area" % w)
        if models.polyomino_to_word(p) != w:
            return CaseResult(key, False, "label reading does not invert %s" % w)
        images.setdefault((n - k, k + 1), set()).add(p)
    for (width, height), image_set in sorted(images.items()):
        brute = set(models.enumerate_area0_polyominoes(width, height, n))
        if brute != image_set:
            return CaseResult(key, False,
                              "area-0 polyominoes of size %dx%d not matched "
                              "(%d enumerated vs %d images)"
                              % (width, height, len(brute), len(image_set)))
    return CaseResult(key, True)


def _case_chromatic(n: int) -> CaseResult:
    key = "chromatic n=%d" % n
    tallies = models.chromatic_path_enumerator(n, n)
    for mu in partitions_of(n):
        exps = tuple(mu) + (0,) * (n - len(mu))
        [dist] = _distributions(mu, sminv_count)
        for l in range(n):
            k = n - 1 - l
            got = tallies.get(l, Counter()).get(exps, 0)
            expected = dist.get((k, l), QPolynomial.zero())(1)
            if got != expected:
                return CaseResult(key, False, "mu=%s l=%d tally=%d enumeration=%d"
                                  % (mu, l, got, expected))
    return CaseResult(key, True)


def _models_tasks(n_max: int, *_) -> List[tuple]:
    tasks = []
    for n in range(n_max, 0, -1):
        tasks += [(_case_avoidance, n), (_case_noncrossing, n)]
        if n <= 6:
            tasks += [(_case_polyomino, n), (_case_chromatic, n)]
    return tasks


class _Suite(NamedTuple):
    tasks: Callable  # (n_max, instances, seed) -> [(case function, args)], largest n first
    default_n_max: int
    # below it a suite has no case (quasisym and models start at n = 1), or
    # cannot draw a word (_random_word draws n from 2..n_max)
    least_n_max: int


_SUITES = {
    "main-theorem": _Suite(_main_theorem_tasks, 6, 0),
    "equidistribution": _Suite(_equidistribution_tasks, 6, 0),
    "bijection": _Suite(_bijection_tasks, 5, 0),
    "insertion-lemmas": _Suite(_insertion_tasks, 7, 2),
    "quasisym": _Suite(_quasisym_tasks, 5, 1),
    "models": _Suite(_models_tasks, 7, 1),
}

SUITES = tuple(_SUITES)


def suite_bound(name: str, n_max: int | None = None, instances: int = 200) -> int:
    """The n_max that run_suite uses for a suite.  A bound or instance count
    under which the suite would run no case, or could not draw a word, is a
    ValueError: a suite with no cases would pass vacuously."""
    if name not in _SUITES:
        raise ValueError("unknown suite %r (choose from %s)" % (name, ", ".join(SUITES)))
    bound = n_max if n_max is not None else _SUITES[name].default_n_max
    least = _SUITES[name].least_n_max
    if bound < least:
        raise ValueError("n_max for suite %s must be at least %d, got %d" % (name, least, bound))
    if name == "insertion-lemmas" and instances < 1:
        raise ValueError("instances must be at least 1, got %d" % instances)
    return bound


def run_suite(name: str, n_max: int | None = None, instances: int = 200,
              seed: int = 0) -> VerificationReport:
    """Run every case of a suite; instances and seed are read by
    insertion-lemmas alone."""
    bound = suite_bound(name, n_max, instances)
    start = time.perf_counter()
    cases = _run_cases(_SUITES[name].tasks(bound, instances, seed))
    return VerificationReport(name, bound, cases, time.perf_counter() - start)
