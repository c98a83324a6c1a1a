"""Verification suites confronting the algebraic recursion with independent
enumeration, bijections, insertion lemmas, quasisymmetric expansions, and the
classical models.  Used by the CLI and by the acceptance tests."""

from __future__ import annotations

import functools
import itertools
import os
import random
import time
from collections import Counter, namedtuple
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor

from . import models, paths, quasisym
from .qengine import (QPolynomial, cells, histogram_poly, q_binomial, sf_h_coefficient,
                      standard_q_count)
from .stats import (omp_dinv, omp_inv, project, sdinv_count, sminv, sminv_count,
                    stat_distributions)
from .words import (SegmentedSmirnovWord, _Record, ascents_descents, enumerate_words, insert_many,
                    partitions_of, set_sequences, shapes_for, words_of_length)


class CaseResult(_Record):
    _fields = ("key", "ok", "witness", "elapsed")

    def __init__(self, key: str, ok: bool, witness: str = "", elapsed: float = 0.0):
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "witness", witness)
        # seconds, measured in the process that ran the case
        object.__setattr__(self, "elapsed", elapsed)


class VerificationReport(_Record):
    _fields = ("suite", "n_max", "cases", "elapsed")

    def __init__(self, suite: str, n_max: int, cases: tuple = (), elapsed: float = 0.0):
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "cases", tuple(cases))
        object.__setattr__(self, "elapsed", elapsed)

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


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform
    has one (taskset and cgroup cpusets narrow it), else every CPU."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _timed(task: tuple) -> CaseResult:
    key, fn, args = task
    start = time.perf_counter()
    witness = fn(args)
    return CaseResult(key, not witness, witness, time.perf_counter() - start)


def _run_cases(tasks: list[tuple]) -> list[CaseResult]:
    """Run (key, case function, args) tasks, through one process pool of one
    worker per usable CPU (no more than there are tasks) when that is above 1,
    in process otherwise; a case returns its witness, "" when it passes, and is
    timed where it runs.  The results come back sorted by key."""
    workers = min(len(tasks), _cpus())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_timed, tasks))
    else:
        results = [_timed(task) for task in tasks]
    return sorted(results, key=lambda c: c.key)


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

def _case_main_mu(mu: tuple) -> str:
    """The sminv enumerator of SW(mu) against the recursion, which reads mu sorted."""
    n = sum(mu)
    [dist] = stat_distributions(enumerate_words(mu), sminv_count)
    return _mismatch(n, dist, lambda k, l: sf_h_coefficient(n, k, l, mu))


def _case_standard(n: int) -> str:
    """The standard recursion and the general one against the enumeration of
    1^n; the standard recursion must also vanish on the cells k + l = n."""
    [dist] = stat_distributions(enumerate_words((1,) * n), sminv_count)
    standard = functools.partial(standard_q_count, n)
    edge = [(k, n - k) for k in range(n + 1)] if n else []  # k + l = n: no block, no word
    return (_mismatch(n, dist, standard)
            or _mismatch(n, dist, lambda k, l: sf_h_coefficient(n, k, l, (1,) * n))
            or next(("k=%d l=%d recursion=%s, not 0" % (k, l, standard(k, l))
                     for k, l in edge if standard(k, l)), ""))


def _case_symmetry(mu: tuple) -> str:
    """Each rearrangement of the partition mu but mu itself against the
    recursion; main-theorem mu=... checks mu."""
    for perm in sorted(set(itertools.permutations(mu)) - {mu}, reverse=True):
        witness = _case_main_mu(perm)
        if witness:
            return "rearrangement %s: %s" % (perm, witness)
    return ""


def _case_q_chu_vandermonde(bound: int) -> str:
    for j in range(bound + 1):
        for a in range(j + 1):
            for r in range(j + 1):
                rhs = QPolynomial.zero()
                for i in range(j + 1):
                    term = q_binomial(r, i) * q_binomial(j - r, a - i)
                    rhs = rhs + term.times_q_power((r - i) * (a - i))
                if q_binomial(j, a) != rhs:
                    return "j=%d a=%d r=%d" % (j, a, r)
    return ""


def _case_trinomial(bound: int) -> str:
    for x in range(bound + 1):
        for y in range(x + 1):
            for z in range(y + 1):
                lhs = q_binomial(x, y) * q_binomial(y, z)
                rhs = q_binomial(x, x - y + z) * q_binomial(x - y + z, z)
                if lhs != rhs:
                    return "x=%d y=%d z=%d" % (x, y, z)
    return ""


def _main_theorem_tasks(n_max: int, *_) -> list[tuple]:
    tasks = []
    for n in range(n_max + 1, -1, -1):
        tasks.append(("standard-case n=%d" % n, _case_standard, n))
        if n <= n_max:
            tasks += [("main-theorem mu=%s" % (mu,), _case_main_mu, mu)
                      for mu in partitions_of(n)]
        if n <= min(n_max, 6):
            tasks += [("symmetry mu=%s" % (mu,), _case_symmetry, mu)
                      for mu in partitions_of(n) if len(set(mu)) > 1]
    return tasks + [("q-chu-vandermonde bound=8", _case_q_chu_vandermonde, 8),
                    ("trinomial bound=10", _case_trinomial, 10)]


# --- equidistribution suite -------------------------------------------------

def _case_equidistribution(mu: tuple) -> str:
    lhs, rhs = stat_distributions(enumerate_words(mu), sminv_count, sdinv_count)
    if lhs != rhs:
        diff = [kl for kl in set(lhs) | set(rhs)
                if lhs.get(kl, QPolynomial.zero()) != rhs.get(kl, QPolynomial.zero())]
        return "distributions differ at (k,l)=%s" % (sorted(diff),)
    return ""


def _equidistribution_tasks(n_max: int, *_) -> list[tuple]:
    return [("equidistribution mu=%s" % (mu,), _case_equidistribution, mu)
            for n in range(n_max, -1, -1) for mu in partitions_of(n)]


# --- bijection suite --------------------------------------------------------

def _case_bijection_mu(mu: tuple) -> str:
    n = sum(mu)
    images = {}
    for w in enumerate_words(mu):
        D = paths.phi(w)
        k, l = ascents_descents(w)
        if D.content() != w.content() or D.rise_count() != k or D.valley_count() != l:
            return "decorations not transported for %s" % w
        if paths.phi_inverse(D) != w:
            return "round trip fails for %s" % w
        if D in images:
            return "phi not injective: %s and %s" % (w, images[D])
        images[D] = w
    all_paths = set()
    for D in paths.enumerate_area0(mu):
        if D in all_paths:
            return "duplicate path in enumeration: %s" % D
        all_paths.add(D)
        if paths.phi(paths.phi_inverse(D)) != D:
            return "path round trip fails for %s" % D
    if all_paths != set(images):
        return "phi is not onto the area-0 paths of content %s" % (mu,)
    [unified_sums] = stat_distributions(images.values(), sdinv_count)
    witness = _mismatch(n, unified_sums, lambda k, l: sf_h_coefficient(n, k, l, mu))
    if witness:
        return "unified dinv sum: " + witness
    for D in images:
        k, l = D.rise_count(), D.valley_count()
        if (k == 0 or l == 0) and paths.unified_dinv(D) != paths.path_dinv(D):
            return "classical dinv mismatch on %s (k=%d l=%d)" % (D, k, l)
    return ""


def _case_projection_mu(mu: tuple) -> str:
    n = sum(mu)
    by_kl: dict = {}
    for w in enumerate_words(mu):
        by_kl.setdefault(ascents_descents(w), []).append(w)
    ops: dict = {}  # OP(mu), the ordered set partitions of content mu, by block count
    for blocks in set_sequences(mu):
        ops.setdefault(len(blocks), set()).add(blocks)
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
                    return "statistics not carried over for %s" % w
            if len(images) != len(words) or images != ops.get(blocks, set()):
                return "projection at k=%d l=%d not bijective onto OP(mu, %d)" % (k, l, blocks)
    return ""


def _bijection_tasks(n_max: int, *_) -> list[tuple]:
    tasks = []
    for n in range(n_max + 1, -1, -1):
        if n <= n_max:
            tasks += [("bijection mu=%s" % (mu,), _case_bijection_mu, mu)
                      for mu in partitions_of(n)]
        if n <= min(n_max + 1, 6):
            tasks += [("projection mu=%s" % (mu,), _case_projection_mu, mu)
                      for mu in partitions_of(n)]
    return tasks


# --- insertion-lemmas suite -------------------------------------------------

def _random_word(rng: random.Random, n_max: int) -> SegmentedSmirnovWord:
    n = rng.randint(2, n_max)
    alphabet = rng.randint(2, max(2, n - 1))
    letters = tuple(rng.randint(1, alphabet) for _ in range(n))
    return SegmentedSmirnovWord(letters, rng.choice(list(shapes_for(letters))))


def _spread_binomial(B: int, s: int) -> QPolynomial:
    """q^(s(s-1)/2) [B choose s]_q: s rises, or s falls, put on distinct blocks of B."""
    return q_binomial(B, s).times_q_power(s * (s - 1) // 2)


# each insertion kind: its insert_many keyword, its sites in a word of B
# blocks, the closed form in (B, s) of its enumerator over s insertions, and
# (but for peaks) whether a block already holds an m where this kind puts one;
# the s singletons go to a multiset of gaps, the others to a set of sites
_INSERTION_SITES = {
    "peak": ("peaks", lambda B: range(1, B), lambda B, s: q_binomial(B - 1, s), None),
    "double_fall": ("falls", lambda B: range(1, B + 1), _spread_binomial,
                    lambda blk, m: blk[0] == m),
    "double_rise": ("rises", lambda B: range(1, B + 1), _spread_binomial,
                    lambda blk, m: blk[-1] == m),
    "singleton": ("gaps", lambda B: range(B + 1), lambda B, s: q_binomial(B + s, s),
                  lambda blk, m: blk == (m,)),
}


def _insertion_enumerator(w, m, kind, s, stat_fn) -> QPolynomial:
    """The sum of q^stat over the ways to insert s letters m of one kind into w."""
    arg, sites_in, _, _ = _INSERTION_SITES[kind]
    sites = sites_in(len(w.shape))
    if arg == "gaps":  # insert_many takes a count per gap
        images = (insert_many(w, m, gaps=[placement.count(g) for g in sites])
                  for placement in itertools.combinations_with_replacement(sites, s))
    else:
        images = (insert_many(w, m, **{arg: subset})
                  for subset in itertools.combinations(sites, s))
    return histogram_poly(Counter(map(stat_fn, images)))


def _case_insertion(args: tuple) -> str:
    kind, batch, count, seed, n_max = args
    _, sites_in, closed_form, holds_m = _INSERTION_SITES[kind]
    rng = random.Random("%d:%s:%d" % (seed, kind, batch))
    for _ in range(count):
        w = _random_word(rng, n_max)
        mx = max(w.letters)
        m = mx + 1
        # half the time a non-peak kind inserts the word's own maximum, where it may
        if holds_m and rng.random() < 0.5 and not any(holds_m(b, mx) for b in w.blocks):
            m = mx
        B = len(w.shape)
        s = rng.randint(0, min(len(sites_in(B)), 4))
        expected_shape = closed_form(B, s)
        for stat_fn, name in ((sminv_count, "sminv"), (sdinv_count, "sdinv")):
            got = _insertion_enumerator(w, m, kind, s, stat_fn)
            expected = expected_shape.times_q_power(stat_fn(w))
            if got != expected:
                return ("w=%s m=%d s=%d stat=%s got=%s expected=%s"
                        % (w, m, s, name, got, expected))
    return ""


def _insertion_tasks(n_max: int, instances: int, seed: int) -> list[tuple]:
    batch_size = 50
    return [("insertion %s batch=%d" % (kind, start // batch_size), _case_insertion,
             (kind, start // batch_size, min(batch_size, instances - start), seed, n_max))
            for kind in _INSERTION_SITES
            for start in range(0, instances, batch_size)]


# --- quasisym suite ---------------------------------------------------------

def _case_expansion(args: tuple) -> str:
    n, k, l = args
    terms = quasisym.fundamental_expansion(n, k, l)
    for bound in range(1, n + 1):
        lhs = quasisym.expand_to_monomials(terms, bound)
        rhs = quasisym.direct_monomial_sum(n, k, l, bound)
        if lhs != rhs:
            return "monomial expansions differ at bound=%d" % bound
    return ""


def _case_standardization(args: tuple) -> str:
    n, bound = args
    for w in words_of_length(n, bound):
        sigma = quasisym.standardize(w)
        if sorted(sigma.letters) != list(range(1, n + 1)) or sigma.shape != w.shape:
            return "st(%s) = %s is not a segmented permutation" % (w, sigma)
        if (w.ascent_positions() != sigma.ascent_positions()
                or w.descent_positions() != sigma.descent_positions()
                or sminv(w).pair_set() != sminv(sigma).pair_set()):
            return "st does not preserve statistics on %s" % w
    return ""


def _case_fiber(n: int) -> str:
    sigmas = list(enumerate_words((1,) * n))
    by_shape: dict = {}
    for sigma in sigmas:
        by_shape.setdefault(sigma.shape, []).append(sigma)
    for w in words_of_length(n, n):
        sigma = quasisym.standardize(w)
        for cand in by_shape.get(w.shape, ()):
            if quasisym.fiber_condition(cand, w) != (cand == sigma):
                return "fiber condition disagrees for w=%s sigma=%s" % (w, cand)
    return ""


def _quasisym_tasks(n_max: int, *_) -> list[tuple]:
    tasks = []
    for n in range(n_max + 1, 0, -1):
        if n <= n_max:
            tasks += [("expansion n=%d k=%d l=%d" % (n, k, l), _case_expansion, (n, k, l))
                      for k, l in cells(n)]
        if n <= min(n_max + 1, 6):
            tasks.append(("standardization n=%d bound=%d" % (n, min(4, n)),
                          _case_standardization, (n, min(4, n))))
        if n <= min(n_max, 4):
            tasks.append(("fiber n=%d" % n, _case_fiber, n))
    return tasks


# --- models suite -----------------------------------------------------------

def _case_avoidance(n: int) -> str:
    count = 0
    for perm in itertools.permutations(range(1, n + 1)):
        word = SegmentedSmirnovWord(perm, (n,))
        zero = sminv_count(word) == 0
        if zero != models.is_231_avoiding(perm):
            return "mismatch at %s" % (perm,)
        count += zero
    if count != models.catalan(n):
        return "count %d != Catalan %d" % (count, models.catalan(n))
    return ""


def _case_noncrossing(n: int) -> str:
    descents = {perm: sum(a > b for a, b in zip(perm, perm[1:]))
                for perm in itertools.permutations(range(1, n + 1))
                if models.is_231_avoiding(perm)}
    partitions_by_blocks: Counter = Counter()
    images = set()
    for p in models.enumerate_noncrossing(n):
        perm = models.noncrossing_to_permutation(p)
        if perm not in descents:
            return "image %s is not a 231-avoiding permutation" % (perm,)
        if models.permutation_to_noncrossing(perm) != p:
            return "decreasing runs do not invert %s" % (p.blocks,)
        # blocks are decreasing runs, junctions are ascents: n - #blocks descents
        if descents[perm] != n - len(p.blocks):
            return "image of %s has %d descents" % (p.blocks, descents[perm])
        images.add(perm)
        partitions_by_blocks[len(p.blocks)] += 1
    if images != set(descents):
        return "images are not exactly the 231-avoiders"
    # Narayana refinement: as many partitions with l+1 blocks as avoiders with l descents
    avoiders_by_descents = Counter(descents.values())
    for l in range(n):
        if partitions_by_blocks[l + 1] != avoiders_by_descents[l]:
            return "Narayana refinement fails at %d descents" % l
    return ""


def _case_polyomino(n: int) -> str:
    images: dict = {}
    for letters in models.single_block_words(n, n):
        w = SegmentedSmirnovWord(letters, (n,))
        k = len(w.ascent_positions())
        p = models.smirnov_to_polyomino(w)
        if (p.width, p.height) != (n - k, k + 1):
            return "size mismatch for %s" % w
        if not p.is_area_zero():
            return "image of %s has positive area" % w
        if models.polyomino_to_word(p) != w:
            return "label reading does not invert %s" % w
        images.setdefault((n - k, k + 1), set()).add(p)
    for (width, height), image_set in sorted(images.items()):
        brute = set(models.enumerate_area0_polyominoes(width, height, n))
        if brute != image_set:
            return ("area-0 polyominoes of size %dx%d not matched (%d enumerated vs %d images)"
                    % (width, height, len(brute), len(image_set)))
    return ""


def _case_chromatic(n: int) -> str:
    """The proper colourings of the path on n vertices with exponent vector mu
    and l descents are the one-block words of SW(mu, n - 1 - l, l): their
    tally against the recursion at q = 1."""
    tallies = models.chromatic_path_enumerator(n, n)
    for mu in partitions_of(n):
        exps = tuple(mu) + (0,) * (n - len(mu))
        for l in range(n):
            got = tallies.get(l, Counter()).get(exps, 0)
            expected = sf_h_coefficient(n, n - 1 - l, l, mu)(1)
            if got != expected:
                return "mu=%s l=%d tally=%d recursion=%d" % (mu, l, got, expected)
    return ""


def _models_tasks(n_max: int, *_) -> list[tuple]:
    tasks = []
    for n in range(n_max, 0, -1):
        tasks += [("231-avoidance n=%d" % n, _case_avoidance, n),
                  ("noncrossing n=%d" % n, _case_noncrossing, n)]
        if n <= 6:
            tasks += [("polyomino n=%d" % n, _case_polyomino, n),
                      ("chromatic n=%d" % n, _case_chromatic, n)]
    return tasks


# tasks: (n_max, instances, seed) -> [(key, case function, args)], largest n
# first; below least_n_max a suite has no case (quasisym and models start at
# n = 1), or cannot draw a word (_random_word draws n from 2..n_max)
_Suite = namedtuple("_Suite", ("tasks", "default_n_max", "least_n_max"))


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
