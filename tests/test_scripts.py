"""Smoke tests: each script in scripts/ runs and reports the expected figures."""

import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args, cwd=None):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                            capture_output=True, text=True, env=env, check=True, cwd=cwd)
    return result.stdout


def test_zero_sminv_census_is_characterized():
    rows = [line.split() for line in run_script("zero_sminv_census.py", "--n-max", "4")
            .splitlines()[1:]]
    assert [int(row[1]) for row in rows] == [1, 3, 10, 35]
    # the q^0 layer of the Hilbert table counts them too
    assert [int(row[2]) for row in rows] == [1, 3, 10, 35]
    assert all(row[-1] == "ok" for row in rows)


def test_bench_pairs_records_one_tiny_pair(tmp_path):
    run_script("bench_pairs.py", "--parent", ROOT, "--change", ROOT, "--workload", "coeff-table",
               "--seeds", "0", "--pairs", "1", "--label", "smoke", "--seconds", "1",
               "--size", "tiny", cwd=tmp_path)
    record = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    with open(os.path.join(ROOT, "BENCH_packed-qengine.json")) as fh:
        assert record.keys() == json.load(fh).keys()
    entry = record["workloads"]["coeff-table"]["seed 0"]
    assert entry["pairs"] == 1
    assert entry["tallies"]["parent"] == entry["tallies"]["change"]
    for side in ("parent", "change"):
        [passes] = entry["passes"][side]["runs"]
        assert type(passes) is int and passes >= 1
    assert all(t.startswith("correct=True") for t in entry["tallies"]["change"])
    assert set(entry["metrics"]) == {"wall_s", "item_p50_us", "item_p99_us", "setup_s",
                                     "peak_rss_mb"}
    wall = entry["metrics"]["wall_s"]
    assert wall["bound"] == 0.25 and len(wall["parent"]["runs"]) == len(wall["change"]["runs"]) == 1


def _bench_pairs():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", os.path.join(ROOT, "scripts", "bench_pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(correct=True, attempted=8000, failed=730, passes=9):
    return {"correct": correct, "attempted": attempted, "failed": failed, "passes": passes,
            "metrics": {}}


def test_bench_pairs_summary_resolves_a_difference_beyond_the_parent_spread():
    def pair(parent, change):
        return tuple(dict(_result(), metrics={"wall_s": {"value": v, "unit": "s"},
                                              "setup_s": {"value": v / 10, "unit": "s"}})
                     for v in (parent, change))
    # parent runs 10..14: median 12, q1 11, q3 13, so a spread of 2
    wall = [pair(p, c) for p, c in zip([10, 11, 12, 13, 14], [12.5, 13.5, 14.5, 15.5, 16.5])]
    entry = _bench_pairs().summary(wall, {"wall_s": 0.25})
    assert entry["passes"]["change"] == {"median": 9, "q1": 9, "q3": 9, "runs": [9] * 5}
    metrics = entry["metrics"]
    assert metrics["wall_s"]["parent"] == {"median": 12, "q1": 11, "q3": 13,
                                           "runs": [10, 11, 12, 13, 14]}
    assert metrics["wall_s"]["resolved"] is True  # |14.5 - 12| > 2
    assert metrics["setup_s"]["resolved"] is True  # |1.45 - 1.2| > 0.2
    near = [pair(p, c) for p, c in zip([10, 11, 12, 13, 14], [13.5, 11, 14, 12, 10])]
    metrics = _bench_pairs().summary(near, {})["metrics"]
    assert metrics["wall_s"]["change"]["median"] == 12
    assert metrics["wall_s"]["resolved"] is False  # equal medians
    assert metrics["setup_s"]["bound"] is None and metrics["setup_s"]["resolved"] is False
    edge = [pair(p, c) for p, c in zip([10, 11, 12, 13, 14], [14] * 5)]
    assert _bench_pairs().summary(edge, {})["metrics"]["wall_s"]["resolved"] is False  # 2, not > 2



def test_bench_pairs_summary_keeps_the_runs_in_pair_order():
    # a run's peak_rss_mb must stay matched with its own pass count
    def run(rss, wall, passes):
        return dict(_result(passes=passes), metrics={
            "peak_rss_mb": {"value": rss, "unit": "MB"}, "wall_s": {"value": wall, "unit": "s"}})
    pairs = [(run(27.2, 40.1, 9), run(26.0, 40.3, 7)), (run(25.8, 40.4, 6), run(27.5, 40.0, 10)),
             (run(26.5, 40.2, 8), run(25.1, 40.6, 5))]
    entry = _bench_pairs().summary(pairs, {})
    assert entry["passes"]["parent"] == {"median": 8, "q1": 7, "q3": 8.5, "runs": [9, 6, 8]}
    assert entry["passes"]["change"]["runs"] == [7, 10, 5]
    rss, wall = entry["metrics"]["peak_rss_mb"], entry["metrics"]["wall_s"]
    assert rss["parent"] == {"median": 26.5, "q1": 26.15, "q3": 26.85, "runs": [27.2, 25.8, 26.5]}
    assert rss["change"]["runs"] == [26.0, 27.5, 25.1]
    assert wall["parent"]["runs"] == [40.1, 40.4, 40.2]
    assert wall["change"]["runs"] == [40.3, 40.0, 40.6]

def test_bench_pairs_check_runs_passes_equal_correct_runs():
    check_runs = _bench_pairs().check_runs
    pairs = [(_result(), _result()), (_result(), _result())]
    assert check_runs({"seed 0": pairs, "seed 1": pairs}) == ([], [])


def test_bench_pairs_check_runs_names_wrong_runs_and_differing_tallies():
    check_runs = _bench_pairs().check_runs
    wrong, differ = check_runs({
        "seed 0": [(_result(), _result()), (_result(), _result(correct=False))],
        "seed 1": [(_result(), _result(failed=697)), (_result(), _result(failed=697))],
    })
    assert wrong == ["seed 0 pair 2: the change run reports correct=false"]
    assert differ == ["seed 1: attempted/failed differ, parent attempted=8000 failed=730, "
                      "change attempted=8000 failed=697"]


def test_bench_pairs_git_head_is_the_commit_of_a_checkout_only(tmp_path):
    git_head = _bench_pairs().git_head
    checkout, plain = tmp_path / "checkout", tmp_path / "plain"
    inner = checkout / "copy"
    inner.mkdir(parents=True)
    plain.mkdir()

    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), "-c", "user.name=t",
                               "-c", "user.email=t@example.com", *args],
                              capture_output=True, text=True, check=True).stdout.strip()
    git("init", "-q")
    git("commit", "-q", "--allow-empty", "-m", "one")
    assert git_head(str(checkout)) == git("rev-parse", "--short", "HEAD")
    # a copy inside another checkout, and a directory outside any, name themselves
    assert git_head(str(inner)) == os.path.realpath(inner)
    assert git_head(str(plain)) == os.path.realpath(plain)
