"""Smoke tests: each script in scripts/ runs and reports the expected figures."""

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


def test_hilbert_tables_reach_the_cardinalities():
    rows = json.loads(run_script("hilbert_tables.py", "--n-max", "4", "--json"))
    assert [row["expected_cardinality"] for row in rows] == [1, 1, 4, 24, 192]
    assert all(row["total_at_q1"] == row["expected_cardinality"] for row in rows)


def test_zero_sminv_census_is_characterized():
    rows = [line.split() for line in run_script("zero_sminv_census.py", "--n-max", "4")
            .splitlines()[1:]]
    assert [int(row[1]) for row in rows] == [1, 3, 10, 35]
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
    assert all(t.startswith("correct=True") for t in entry["tallies"]["change"])
    assert set(entry["metrics"]) == {"wall_s", "item_p50_us", "item_p99_us", "setup_s",
                                     "peak_rss_mb"}
    wall = entry["metrics"]["wall_s"]
    assert wall["bound"] == 0.25 and len(wall["parent"]["runs"]) == len(wall["change"]["runs"]) == 1
