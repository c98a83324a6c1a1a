"""Acceptance gate: the ten headline claims, each checked by exact equality and
reported as a single pass/fail line.

Every criterion but the fixed fixtures (4) reads the cases of a verification
suite run at its default bounds, so `smirnov verify --suite all` runs exactly
the cases of this gate.  The lines are written to the real stdout so they
appear even under pytest's output capture; run
`pytest tests/test_acceptance.py -v` for the full detail.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from smirnov import verify
from smirnov.cli import main
from smirnov.paths import DecoratedLabelledDyckPath, area, area_word, path_dinv
from smirnov.qengine import QPolynomial
from smirnov.quasisym import split_set, standardize
from smirnov.stats import enumerative_q_sum, sdinv, sminv
from smirnov.words import enumerate_words, parse_word
from smirnov.models import (NoncrossingPartition, noncrossing_to_permutation,
                            polyomino_to_word, smirnov_to_polyomino)

from test_stats import height_array

# criterion -> (suite, key prefixes of its cases, number of cases at default bounds)
CRITERIA = {
    1: ("main-theorem", ("main-theorem ",), 30),
    2: ("equidistribution", ("equidistribution ",), 30),
    3: ("main-theorem", ("standard-case ",), 8),
    5: ("insertion-lemmas", ("insertion ",), 16),
    6: ("bijection", ("bijection ",), 19),
    7: ("bijection", ("projection ",), 30),
    8: ("quasisym", ("expansion ", "standardization ", "fiber "), 45),
    9: ("models", ("231-avoidance ", "noncrossing ", "polyomino ", "chromatic "), 26),
    10: ("main-theorem", ("q-chu-vandermonde ", "trinomial ", "symmetry "), 17),
}


@pytest.fixture(scope="module")
def suite_cases():
    """A suite's cases at default bounds; each suite runs once, on first use."""
    reports = {}

    def _cases(name):
        if name not in reports:
            reports[name] = verify.run_suite(name).cases
        return reports[name]
    return _cases


def criterion_cases(suite_cases, number):
    suite, prefixes, _ = CRITERIA[number]
    return [c for c in suite_cases(suite) if c.key.startswith(prefixes)]


@pytest.fixture
def report(capsys, suite_cases):
    """One pass/fail line per criterion, written past pytest's capture.  The
    cases default to the criterion's share of its suite."""
    def _report(number: int, name: str, cases=None) -> None:
        if cases is None:
            cases = criterion_cases(suite_cases, number)
        failures = [c for c in cases if not c.ok]
        status = "FAIL" if failures else "pass"
        with capsys.disabled():
            print("[%s] criterion %d: %s" % (status, number, name), flush=True)
        assert not failures, "; ".join(
            "%s: %s" % (c.key, c.witness) for c in failures)
    return _report


def test_criterion_01_main_theorem(report):
    report(1, "recursion coefficient equals the sminv enumerator for all "
              "contents with n <= 6")


def test_criterion_02_equidistribution(report):
    report(2, "sminv and sdinv are equidistributed on every (mu, k, l) cell "
              "with n <= 6")


def test_criterion_03_standard_case(report):
    report(3, "standard-case recursion matches enumeration and the table "
              "for n <= 7")


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
    report(5, "aggregated insertion enumerators match the four closed forms "
              "on 200 random instances per kind, both statistics")


def test_criterion_06_bijection(report):
    report(6, "path bijection round trips, transports decorations, and the "
              "unified dinv sums match the recursion for n <= 5")


def test_criterion_07_projections(report):
    report(7, "projections to ordered set partitions are bijective and send "
              "the statistics to inv/dinv for n <= 6")


def test_criterion_08_quasisymmetric(report):
    report(8, "fundamental expansion equals direct monomial enumeration "
              "(n <= 5), standardization preserves the statistics "
              "(n <= 6, letters <= 4), and the fiber condition picks out "
              "the standardization (n <= 4)")


def test_criterion_09_models(report):
    report(9, "classical models: 231-avoidance with Catalan counts (n <= 7), "
              "Narayana refinement (n <= 7), polyomino bijection (n <= 6), "
              "chromatic tallies (n <= 6)")


def test_criterion_10_q_identities(report):
    report(10, "q-binomial identity suites (indices <= 10/8) and content "
               "symmetry of the enumerator (n <= 6)")


def test_every_suite_case_belongs_to_one_criterion(suite_cases):
    # a suite whose bounds drift below a criterion's stated bound fails here
    for suite in verify.SUITES:
        for case in suite_cases(suite):
            owners = [number for number, (name, prefixes, _) in CRITERIA.items()
                      if name == suite and case.key.startswith(prefixes)]
            assert len(owners) == 1, (case.key, owners)
    for number, (_, _, count) in CRITERIA.items():
        assert len(criterion_cases(suite_cases, number)) == count, number


# SHA-256 of the answers: the CSV of two `smirnov table` runs, and the sorted
# [key, status] pairs of `smirnov verify --suite all --json` at default bounds.
# A change to any answer is then an explained edit of a constant here.
TABLE_DIGESTS = {
    ("h-coeff", 12): "e52da8d75450018455bcc17d41980bcd767b3417aa27b6f89df4bcb10fa65063",
    ("hilbert", 30): "848c77baabccc6e2db4f2d1526a074916f1809bb7d3fbc7dc3b280d2a1964983",
}
CASE_DIGEST = "006e0608a598b089123b662989bed284ef19a61977a5adc7ef1a058b332ae232"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_answer_digests(suite_cases):
    for (kind, n), digest in TABLE_DIGESTS.items():
        result = CliRunner().invoke(main, ["table", "--kind", kind, "--n", str(n),
                                           "--format", "csv"])
        assert result.exit_code == 0 and _sha256(result.output) == digest, (kind, n)
    keys = sorted([c.key, "pass" if c.ok else "fail"]
                  for suite in verify.SUITES for c in suite_cases(suite))
    assert len(keys) == 221 and all(status == "pass" for _, status in keys)
    assert _sha256(json.dumps(keys)) == CASE_DIGEST
