"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import spans  # noqa: E402
import workloads  # noqa: E402
from smirnov import SegmentedSmirnovWord, enumerate_words, parse_word  # noqa: E402


def _declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _tiny_pass(workload: str, oracles=None) -> workloads.Run:
    run = workloads.Run(spans.NullTracer(), oracles or workloads.Oracles(),
                        str(ROOT / ".bench_out" / "tmp"))
    workloads.qengine.q_binomial.cache_clear()
    workloads.qengine.standard_q_count.cache_clear()
    workloads.PASSES[workload](workloads.make_inputs(workload, 0, "tiny"), run)
    return run


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(workloads.PASSES))
def test_every_declared_metric_is_emitted_with_its_unit(workload, trace, kind):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _declared(kind)
    assert any(line.startswith("error_rate") and "ratio" in line for line in lines)


def _result(workload: str, seconds: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", "0", "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_tallies_do_not_depend_on_run_length():
    short, long = _result("word-queries", "0.1"), _result("word-queries", "3")
    assert short["failed"] > 0
    assert (short["attempted"], short["failed"]) == (long["attempted"], long["failed"])
    assert short["correct"] and long["correct"]


def test_probe_time_is_left_out_of_the_pass():
    run = workloads.Run(spans.NullTracer(), workloads.Oracles(), "unused")
    run._next_probe = 0.0
    assert run.lap() < 1e-3
    assert len(run.reference) == 1
    assert run.wall < run.reference[0]


def test_wrong_hilbert_total_shows_in_error_rate():
    class WrongHilbert(workloads.Oracles):
        def hilbert_total(self, n):
            return super().hilbert_total(n) + 1

    assert _tiny_pass("coeff-table").failed == 0
    run = _tiny_pass("coeff-table", WrongHilbert())
    hilbert_n = workloads.SIZES["tiny"]["hilbert_n"]
    assert run.failed == hilbert_n * (hilbert_n + 1) // 2
    assert run.failed_known == 0


def test_wrong_ascent_oracle_shows_in_error_rate():
    class WrongAscents(workloads.Oracles):
        def ascents_descents(self, letters, shape):
            asc, desc = super().ascents_descents(letters, shape)
            return asc | {len(letters)}, desc

    run = _tiny_pass("word-queries", WrongAscents())
    assert run.failed == run.attempted
    assert run.failed_known < run.failed


def test_word_query_failures_are_exactly_the_known_defect():
    assert parse_word(SegmentedSmirnovWord((12,), (1,)).text()) != \
        SegmentedSmirnovWord((12,), (1,))
    run = _tiny_pass("word-queries")
    expected = sum(workloads.has_multidigit_singleton(letters, shape)
                   for letters, shape in workloads.make_inputs("word-queries", 0, "tiny")["words"])
    assert expected > 0
    assert run.failed == run.failed_known == expected


def test_transfer_dp_counts_segmented_smirnov_words():
    oracles = workloads.Oracles()
    for n in range(6):
        for mu in workloads.partitions(n):
            assert oracles.smirnov_word_count(mu) == sum(1 for _ in enumerate_words(mu))
    assert oracles.hilbert_total(5) == oracles.smirnov_word_count((1,) * 5)


def test_self_time_subtracts_children():
    tracer = spans.Tracer()
    tracer.begin("bench.item", 7)
    tracer.call("words.parse_word", parse_word, "21|3")
    tracer.end()
    seconds, calls = tracer.self_times()
    assert calls == {"bench.item": 1, "words.parse_word": 1}
    total = tracer.stop[0] - tracer.start[0]
    assert seconds["bench.item"] + seconds["words.parse_word"] == pytest.approx(total)
    assert list(tracer.parent) == [-1, 0] and list(tracer.item) == [7, 7]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "coeff-table", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
