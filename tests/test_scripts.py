"""Smoke tests: each script in scripts/ runs and reports the expected figures."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    result = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                            capture_output=True, text=True, env=env, check=True)
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
