"""Acceptance gate: the ten headline claims, each checked by exact equality and
reported as a single pass/fail line.

The lines are written to the real stdout so they appear even under pytest's
output capture; run `pytest tests/test_acceptance.py -v` for the full detail.
"""

import os

import pytest

# shard exhaustive sweeps across processes when several cores are available
os.environ.setdefault("SMIRNOV_THREADS", str(min(4, os.cpu_count() or 1)))

from smirnov import verify
from smirnov.paths import DecoratedLabelledDyckPath, area, area_word, path_dinv, phi
from smirnov.qengine import QPolynomial, enumerative_q_sum
from smirnov.quasisym import split_set, standardize
from smirnov.stats import height_array, sdinv, sminv
from smirnov.words import enumerate_words, parse_word, partitions_of
from smirnov.models import (NoncrossingPartition, noncrossing_to_permutation,
                            polyomino_to_word, smirnov_to_polyomino)


@pytest.fixture
def report(capsys):
    """One pass/fail line per criterion, written past pytest's capture."""
    def _report(number: int, name: str, cases) -> None:
        failures = [c for c in cases if not c.ok]
        status = "FAIL" if failures else "pass"
        with capsys.disabled():
            print("[%s] criterion %d: %s" % (status, number, name), flush=True)
        assert not failures, "; ".join(
            "%s: %s" % (c.key, c.witness) for c in failures)
    return _report


def mus_up_to(n_max):
    return [mu for n in range(n_max + 1) for mu in partitions_of(n)]


def test_criterion_01_main_theorem(report):
    cases = verify._run_cases(verify._case_main_mu, mus_up_to(6))
    report(1, "recursion coefficient equals the sminv enumerator for all "
              "contents with n <= 6", cases)


def test_criterion_02_equidistribution(report):
    cases = verify.suite_equidistribution(6)
    report(2, "sminv and sdinv are equidistributed on every (mu, k, l) cell "
              "with n <= 6", cases)


def test_criterion_03_standard_case(report):
    cases = verify._run_cases(verify._case_standard, list(range(8)))
    report(3, "standard-case recursion matches enumeration and the table "
              "for n <= 7", cases)


def test_criterion_04_fixed_fixtures(report):
    ok = True
    witness = []
    try:
        w = parse_word("231|3212|12")
        assert sminv(w).count == 8
        assert sminv(w).pair_set() == frozenset(
            {(1, 3), (1, 6), (1, 8), (2, 5), (2, 8), (4, 8), (5, 8), (7, 8)})
        assert sdinv(w).count == 10
        assert height_array(w, 3) == (0, 1, 1, 0, 0, 1, 2, 0, 1)
        # the SW((2,1)) statistic table: both statistics on all 8 words
        table = {v.text(): (sminv(v).count, sdinv(v).count)
                 for v in enumerate_words((2, 1))}
        assert table == {"121": (0, 0), "1|12": (0, 1), "1|21": (0, 0),
                         "12|1": (1, 0), "21|1": (1, 1), "1|1|2": (0, 0),
                         "1|2|1": (1, 1), "2|1|1": (2, 2)}
        assert enumerative_q_sum((2, 1), 0, 0) == QPolynomial((1, 1, 1))
        assert enumerative_q_sum((2, 1), 1, 0) == QPolynomial((1, 1))
        assert enumerative_q_sum((2, 1), 0, 1) == QPolynomial((1, 1))
        assert enumerative_q_sum((2, 1), 1, 1) == QPolynomial((1,))
        for stat in ("sminv", "sdinv"):
            assert enumerative_q_sum((2, 1), 0, 0, stat) == QPolynomial((1, 1, 1))
        assert standardize(parse_word("121|31|2132")).text() == "152|93|6487"
        assert split_set(parse_word("152|93|6487")) == frozenset({4, 7})
        nc = NoncrossingPartition(((1, 2, 5), (3, 4), (6, 8, 9), (7,)))
        assert noncrossing_to_permutation(nc) == (5, 2, 1, 4, 3, 9, 8, 6, 7)
        poly = smirnov_to_polyomino(parse_word("213532142"))
        assert poly.is_area_zero() and polyomino_to_word(poly).text() == "213532142"
        D = DecoratedLabelledDyckPath("NNENENNNEENEEENE", (2, 3, 4, 1, 2, 4, 3, 2),
                                      frozenset({2, 6}), frozenset({3, 7}))
        assert area_word(D) == (0, 1, 1, 1, 2, 3, 2, 0)
        assert area(D) == 6 and path_dinv(D) == 2
    except AssertionError as exc:
        ok = False
        witness.append(str(exc))
    report(4, "all fixed worked-example fixtures hold exactly",
           [verify.CaseResult("fixtures", ok, "; ".join(witness))])


def test_criterion_05_insertion_lemmas(report):
    cases = verify.suite_insertion_lemmas(n_max=7, instances=200, seed=0)
    report(5, "aggregated insertion enumerators match the four closed forms "
              "on 200 random instances per kind, both statistics", cases)


def test_criterion_06_bijection(report):
    cases = verify._run_cases(verify._case_bijection_mu, mus_up_to(5))
    report(6, "path bijection round trips, transports decorations, and the "
              "unified dinv sums match the recursion for n <= 5", cases)


def test_criterion_07_projections(report):
    cases = verify._run_cases(verify._case_projection_mu, mus_up_to(6))
    report(7, "projections to ordered set partitions are bijective and send "
              "the statistics to inv/dinv for n <= 6", cases)


def test_criterion_08_quasisymmetric(report):
    args = [(n, k, l) for n in range(1, 6) for k in range(n) for l in range(n - k)]
    cases = verify._run_cases(verify._case_expansion, args)
    cases += verify._run_cases(verify._case_standardization,
                               [(n, min(4, n)) for n in range(1, 7)])
    report(8, "fundamental expansion equals direct monomial enumeration "
              "(n <= 5) and standardization preserves the statistics "
              "(n <= 6, letters <= 4)", cases)


def test_criterion_09_models(report):
    cases = verify._run_cases(verify._case_avoidance, list(range(1, 8)))
    cases += verify._run_cases(verify._case_noncrossing, list(range(1, 8)))
    cases += verify._run_cases(verify._case_polyomino, list(range(1, 7)))
    cases += verify._run_cases(verify._case_chromatic, list(range(1, 7)))
    report(9, "classical models: 231-avoidance with Catalan counts (n <= 7), "
              "Narayana refinement (n <= 7), polyomino bijection (n <= 6), "
              "chromatic tallies (n <= 6)", cases)


def test_criterion_10_q_identities(report):
    cases = [verify._case_q_chu_vandermonde(8), verify._case_trinomial(10)]
    sym_mus = [mu for n in range(7) for mu in partitions_of(n) if len(set(mu)) > 1]
    cases += verify._run_cases(verify._case_symmetry, sym_mus)
    report(10, "q-binomial identity suites (indices <= 10/8) and content "
               "symmetry of the enumerator (n <= 6)", cases)
