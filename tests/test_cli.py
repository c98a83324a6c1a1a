"""Tests for the command-line interface."""

import concurrent.futures
import itertools
import json
import os
import subprocess
import sys

import pytest
from click.testing import CliRunner

from smirnov import verify
from smirnov.cli import main
from smirnov.qengine import QPolynomial


def run(*args):
    return CliRunner().invoke(main, list(args))


def test_module_runs_as_a_process():
    # `python -m smirnov.cli` reaches the module's `__main__` guard, which
    # CliRunner never does
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    for args, line in [(["table", "--kind", "hilbert", "--n", "3"], "  3   1   1 1^3        3+q"),
                       (["stat", "--word", "231|3212|12", "--stat", "sminv"],
                        "sminv(231|3212|12) = 8")]:
        result = subprocess.run([sys.executable, "-m", "smirnov.cli", *args], capture_output=True,
                                text=True, env=env, timeout=60)
        assert result.returncode == 0, result.stderr
        assert line in result.stdout.splitlines()


def test_import_loads_no_process_pool():
    # only smirnov verify starts a pool; multiprocessing cost every other
    # command about 10 ms of import.  No -S: click is a site package
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    result = subprocess.run(
        [sys.executable, "-c",
         "import smirnov.cli, sys; "
         "print(sorted({'multiprocessing', 'concurrent.futures.process'} & sys.modules.keys()))"],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(root, "src")))
    assert result.stdout.strip() == "[]"


class TestEnumerate:
    def test_words_text(self):
        result = run("enumerate", "--mu", "2,1")
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert len(lines) == 8
        assert "121" in lines

    def test_words_filtered(self):
        result = run("enumerate", "--mu", "2,1", "--k", "1", "--l", "0")
        assert result.exit_code == 0
        assert set(result.output.split()) == {"1|12", "12|1"}

    def test_paths_json(self):
        result = run("enumerate", "--mu", "2,1", "--kind", "paths", "--format", "json")
        assert result.exit_code == 0
        rows = [json.loads(line) for line in result.output.strip().splitlines()]
        assert len(rows) == 8
        assert all({"steps", "labels", "drise", "dvalley"} <= set(r) for r in rows)

    def test_k_without_l_rejected(self):
        result = run("enumerate", "--mu", "2,1", "--k", "1")
        assert result.exit_code != 0

    @pytest.mark.parametrize("k, l", [("-1", "0"), ("0", "-1")])
    def test_negative_k_or_l_is_usage_error(self, k, l):
        result = run("enumerate", "--mu", "2,1", "--k", k, "--l", l)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "is not in the range x>=0" in result.output

    def test_malformed_mu(self):
        result = run("enumerate", "--mu", "2,x")
        assert result.exit_code != 0

    @pytest.mark.parametrize("kind", ["words", "paths"])
    def test_negative_mu_is_usage_error(self, kind):
        result = run("enumerate", "--mu", "1,-1", "--kind", kind)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "nonnegative" in result.output


class TestStat:
    def test_sminv_text(self):
        result = run("stat", "--word", "231|3212|12", "--stat", "sminv")
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "sminv(231|3212|12) = 8",
            "  (1,3) case 2",
            "  (1,6) case 4",
            "  (1,8) case 1",
            "  (2,5) case 3",
            "  (2,8) case 1",
            "  (4,8) case 1",
            "  (5,8) case 1",
            "  (7,8) case 1",
        ]

    def test_sdinv_text(self):
        result = run("stat", "--word", "231|3212|12", "--stat", "sdinv")
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "sdinv(231|3212|12) = 10",
            "  (1,3) case right",
            "  (1,6) case right",
            "  (1,8) case right",
            "  (2,5) case peak",
            "  (2,8) case peak",
            "  (4,8) case right",
            "  (5,8) case right",
            "  (7,3) case left",
            "  (9,3) case left",
            "  (9,6) case left",
        ]

    def test_sdinv_json(self):
        result = run("stat", "--word", "231|3212|12", "--stat", "sdinv", "--json")
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["count"] == 10

    def test_bad_word(self):
        result = run("stat", "--word", "11", "--stat", "sminv")
        assert result.exit_code != 0

    def test_non_ascii_digit_is_a_bad_letter(self):
        result = run("stat", "--word", "²", "--stat", "sminv")
        assert result.exit_code == 1
        assert "cannot parse word: bad letter '²' in block 1" in result.output


@pytest.fixture
def in_process(monkeypatch):
    """One usable CPU, so the suites run their cases in this process and see
    its monkeypatches."""
    monkeypatch.setattr(verify, "_cpus", lambda: 1)


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the process pools the suites start."""
    started = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return started


class TestVerify:
    def test_small_suite_passes(self):
        result = run("verify", "--suite", "equidistribution", "--n-max", "3")
        assert result.exit_code == 0
        assert "[pass]" in result.output
        assert "0 failed" in result.output

    def test_json_report(self):
        result = run("verify", "--suite", "main-theorem", "--n-max", "2", "--json")
        assert result.exit_code == 0
        reports = json.loads(result.output)
        assert reports[0]["suite"] == "main-theorem"
        assert reports[0]["failed"] == 0
        assert all(c["elapsed"] >= 0 for c in reports[0]["cases"])

    def test_case_elapsed_is_measured_in_pool_workers(self, monkeypatch, pools):
        monkeypatch.setattr(verify, "_cpus", lambda: 2)
        result = run("verify", "--suite", "equidistribution", "--n-max", "4", "--json")
        assert result.exit_code == 0
        assert pools == [2]
        [report] = json.loads(result.output)
        elapsed = [c["elapsed"] for c in report["cases"]]
        assert len(elapsed) == 12
        assert min(elapsed) >= 0 and max(elapsed) > 0

    @pytest.mark.parametrize("cpus,tasks,started", [
        (1, 12, []), (8, 1, []), (8, 0, []), (8, 3, [3]), (2, 12, [2])])
    def test_pool_has_a_worker_per_usable_cpu_and_task(self, monkeypatch, pools,
                                                       cpus, tasks, started):
        # one usable CPU, or one task, runs the cases in this process
        monkeypatch.setattr(verify, "_cpus", lambda: cpus)
        keys = ["case %02d" % i for i in range(tasks)]
        results = verify._run_cases([(key, str, "") for key in reversed(keys)])
        assert pools == started
        assert [c.key for c in results] == keys and all(c.ok for c in results)

    def test_usable_cpus_are_the_affinity_mask_else_every_cpu(self, monkeypatch):
        monkeypatch.setattr(verify.os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert verify._cpus() == 2
        monkeypatch.delattr(verify.os, "sched_getaffinity")
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 6)
        assert verify._cpus() == 6
        monkeypatch.setattr(verify.os, "cpu_count", lambda: None)
        assert verify._cpus() == 1

    @pytest.mark.parametrize("args,message", [
        # each of these used to pass vacuously ("0 passed, 0 failed", exit 0)
        (["--suite", "equidistribution", "--n-max", "-3"], "at least 0, got -3"),
        (["--suite", "models", "--n-max", "0"], "at least 1, got 0"),
        # this one used to end in a raw "empty range for randrange()" traceback
        (["--suite", "insertion-lemmas", "--n-max", "1"], "at least 2, got 1"),
        (["--suite", "all", "--n-max", "1"], "insertion-lemmas must be at least 2"),
    ], ids=["negative-n-max", "models-n-max-0", "insertion-n-max-1", "all-n-max-1"])
    def test_bounds_without_cases_are_usage_errors(self, args, message):
        result = run("verify", *args)
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert message in result.output

    @pytest.mark.usefixtures("in_process")
    def test_failing_case_reaches_the_report(self, monkeypatch):
        monkeypatch.setattr(verify, "standard_q_count", lambda n, k, l: QPolynomial((7,)))
        report = verify.run_suite("main-theorem", 3)
        failed = [c for c in report.cases if not c.ok]
        assert [c.key for c in failed] == ["standard-case n=%d" % n for n in range(5)]
        assert all("recursion=7" in c.witness for c in failed)
        result = run("verify", "--suite", "main-theorem", "--n-max", "3")
        assert result.exit_code == 1
        assert "[FAIL] standard-case n=4 -- k=0 l=0 recursion=7" in result.output
        assert "5 failed" in result.output

    @pytest.mark.usefixtures("in_process")
    def test_empty_content_is_compared(self, monkeypatch):
        # main-theorem mu=() used to compare no cell and pass whatever the recursion gave
        real = verify.sf_h_coefficient
        monkeypatch.setattr(verify, "sf_h_coefficient", lambda n, k, l, mu: (
            QPolynomial((5,)) if n == 0 else real(n, k, l, mu)))
        report = verify.run_suite("main-theorem", 0)
        failed = {c.key: c.witness for c in report.cases if not c.ok}
        assert failed.keys() == {"main-theorem mu=()", "standard-case n=0"}
        assert failed["main-theorem mu=()"] == "k=0 l=0 recursion=5 enumeration=1"

    def test_projection_compares_with_each_block_count(self, monkeypatch):
        # OP((1, 1, 1)) without one of its 2-block partitions
        real = verify.set_sequences
        monkeypatch.setattr(verify, "set_sequences", lambda mu: (
            blocks for blocks in real(mu) if blocks != ((1, 2), (3,))))
        assert verify._case_projection_mu((1, 1, 1)) == \
            "projection at k=0 l=1 not bijective onto OP(mu, 2)"

    def test_words_outside_the_cells_are_reported(self):
        # no segmented word has k + l >= n, so only a broken enumerator gets here
        one = QPolynomial((1,))
        dist = {(0, 0): one, (0, 1): one, (1, 1): one, (2, 0): QPolynomial.zero()}
        agree = lambda k, l: dist.get((k, l), QPolynomial.zero())  # noqa: E731
        assert verify._mismatch(2, dist, agree) == \
            "words found outside the cells at (k,l)=(1, 1)"
        del dist[1, 1]
        assert verify._mismatch(2, dist, agree) == ""

    @pytest.mark.usefixtures("in_process")
    def test_symmetry_compares_each_rearrangement_with_the_recursion(self, monkeypatch):
        # SW((1, 2)) enumerated without one word; the sorted content stays right
        real = verify.enumerate_words
        monkeypatch.setattr(verify, "enumerate_words", lambda mu: (
            itertools.islice(real(mu), 1, None) if tuple(mu) == (1, 2) else real(mu)))
        report = verify.run_suite("main-theorem", 3)
        failed = {c.key: c.witness for c in report.cases if not c.ok}
        assert list(failed) == ["symmetry mu=(2, 1)"]
        assert failed["symmetry mu=(2, 1)"].startswith("rearrangement (1, 2): k=")

    @pytest.mark.usefixtures("in_process")
    def test_chromatic_compares_with_the_recursion(self, monkeypatch):
        # the colouring tallies are right; the recursion is wrong at mu = (2, 1) alone
        real = verify.sf_h_coefficient
        monkeypatch.setattr(verify, "sf_h_coefficient", lambda n, k, l, mu: (
            real(n, k, l, mu) + QPolynomial((1,)) if tuple(mu) == (2, 1)
            else real(n, k, l, mu)))
        report = verify.run_suite("models", 3)
        failed = {c.key: c.witness for c in report.cases if not c.ok}
        assert list(failed) == ["chromatic n=3"]
        assert failed["chromatic n=3"] == "mu=(2, 1) l=0 tally=0 recursion=1"


class TestTable:
    def test_hilbert_text(self):
        result = run("table", "--kind", "hilbert", "--n", "3")
        assert result.exit_code == 0
        assert "3+q" in result.output
        assert "trivariate: (1+2q+2q^2+q^3) + (2+3q+q^2)v + v^2 + " \
               "(2+3q+q^2)u + (3+q)uv + u^2" in result.output

    def test_h_coeff_csv(self):
        result = run("table", "--kind", "h-coeff", "--n", "3", "--format", "csv")
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "n,k,l,mu,poly"
        assert any('"1,1,1","3+q"' in line for line in lines)

    def test_hilbert_zero_has_its_row(self):
        # n = 0 used to print the header and "trivariate: 0" alone
        result = run("table", "--kind", "hilbert", "--n", "0")
        assert result.exit_code == 0
        assert result.output.splitlines()[1:] == ["  0   0   0 1^0        1", "trivariate: 1"]

    def test_negative_n_rejected(self):
        result = run("table", "--kind", "hilbert", "--n", "-1")
        assert result.exit_code != 0


@pytest.mark.parametrize("command", [
    ["table", "--kind", "h-coeff", "--n", "3"],
    ["verify", "--suite", "main-theorem", "--n-max", "2"],
], ids=["table", "verify"])
def test_memo_file_is_not_an_option(tmp_path, command):
    # tables and suites are computed in process; neither reads nor writes a file
    memo = tmp_path / "memo.json"
    result = run(*command, "--memo-file", str(memo))
    assert result.exit_code == 2
    assert "No such option" in result.output and "--memo-file" in result.output
    assert not memo.exists()


@pytest.mark.parametrize("option, value", [("--instances", "5"), ("--seed", "1")])
def test_verify_sample_is_not_an_option(option, value):
    # the insertion-lemmas sample is fixed: a report depends on its suite and bound alone
    result = run("verify", "--suite", "insertion-lemmas", "--n-max", "3", option, value)
    assert result.exit_code == 2
    assert "No such option" in result.output and option in result.output
