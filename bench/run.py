#!/usr/bin/env python3
"""Benchmark of the smirnov package: end-to-end metrics, or a traced per-layer run.

Usage (from the repository root):

    python3 bench/run.py --workload theorem-sweep --seed 0 --seconds 40 --trace 0

Workloads: theorem-sweep, coeff-table, word-queries (see bench/README.md).
The program is imported from src/ next to this directory; nothing is
installed.  One process, one thread, one closed-loop caller.  Whole passes
run while the next one fits in --seconds (at least one; with --trace 1 at
least one untraced and one traced, alternating).

Times are scaled to a reference host speed.  The shared host this was tuned
on runs the same code up to 1.5x slower for minutes at a time, so raw times
of two runs differ by more than any bound worth setting.  Every 25 ms, at a
boundary between items, a pass times workloads.reference_work(), a fixed
piece of interpreter work that calls nothing in the program; each time the
pass measures is multiplied by REFERENCE_S / (mean probe time in the pass).

--trace 0 prints the end-to-end metrics: wall_s (median over passes of the
pass's wall time), item_p50_us / item_p99_us (over every timed item of every
pass), setup_s (median of fresh-process `import smirnov` + input generation,
spread over the run), peak_rss_mb, and, on a line of its own, error_rate.
--trace 1 prints the per-layer table from the traced passes and
trace.overhead_s, and writes every span to .bench_out/.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the tallies are those of one
pass, and every later pass must repeat them.  `correct` is false when any
item failed for a reason other than the one known defect named in
workloads.KNOWN_DEFECT, or when the passes' tallies differ; items failing by
that defect still count in `failed`.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

from spans import NullTracer, Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7
# reference_work()'s time on the reference host; scaled times are seconds there
REFERENCE_S = 500e-6
LAYERS = ("words", "stats", "paths", "qengine", "quasisym")

END_TO_END_UNITS = {"wall_s": "s", "item_p50_us": "us", "item_p99_us": "us",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def _setup(workload: str, seed: int, size: str) -> tuple:
    """Import the program and build the inputs; (seconds, workloads module, inputs)."""
    t0 = perf_counter()
    import workloads  # imports smirnov
    inputs = workloads.make_inputs(workload, seed, size)
    return perf_counter() - t0, workloads, inputs


def _setup_probe_in_fresh_process(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed), "--size", args.size],
        capture_output=True, text=True, timeout=150, check=True)
    return float(proc.stdout.split()[-1])


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


class Measured:
    """What the passes of one run leave.  Raw and scaled pass walls, kept
    apart for untraced (False) and traced (True) passes; the scaled item
    latencies of the untraced passes; the first pass's tallies and the number
    of passes whose tallies differ from it; raw and scaled set-up times; the
    reference probe times."""

    def __init__(self, setup_s: float):
        self.walls = {False: [], True: []}
        self.scaled_walls = {False: [], True: []}
        self.scaled_latencies = array("d")
        self.tally = None
        self.inconsistent = 0
        self.setup = [setup_s]
        self.scaled_setup = []
        self.probes = array("d")     # every reference_work() time of the run


def _measure(wl, args, inputs: dict, setup_s: float):
    """Run whole passes while the next one fits in args.seconds; with tracing
    off, one fresh-process set-up probe follows each pass until there are
    SETUP_SAMPLES set-ups.  Returns (run, measured, tracer)."""
    trace = bool(args.trace)
    null, tracer = NullTracer(), (Tracer() if trace else None)
    run = wl.Run(null, wl.Oracles(), str(OUT / "tmp"))
    one_pass = wl.PASSES[args.workload]
    m = Measured(setup_s)
    start = perf_counter()
    i = 0
    while True:
        traced = trace and i % 2 == 1
        run.tracer = tracer if traced else null
        wl.qengine.q_binomial.cache_clear()
        wl.qengine.standard_q_count.cache_clear()
        run.start_pass()
        run.tracer.begin("bench.pass")
        one_pass(inputs, run)
        run.tracer.end()
        run.lap()
        if not run.reference:
            run.probe()
        scale = REFERENCE_S / statistics.fmean(run.reference)
        m.walls[traced].append(run.wall)
        m.scaled_walls[traced].append(run.wall * scale)
        if not traced:
            m.scaled_latencies.extend(t * scale for t in run.latencies)
        tally = (run.attempted, run.failed, run.failed_known)
        if m.tally is None:
            m.tally = tally
        elif tally != m.tally:
            m.inconsistent += 1
        for name in ("q_binomial", "standard_q_count"):
            info = getattr(wl.qengine, name).cache_info()
            run.counters["qengine.%s.hit_ratio" % name] = \
                info.hits / (info.hits + info.misses) if info.hits + info.misses else 0.0
        i += 1
        # a set-up is scaled by the speed of the pass nearest to it in time
        setup_took = 0.0
        if not trace:
            if not m.scaled_setup:
                m.scaled_setup.append(m.setup[0] * scale)
            if len(m.setup) < SETUP_SAMPLES:
                t0 = perf_counter()
                m.setup.append(_setup_probe_in_fresh_process(args))
                m.scaled_setup.append(m.setup[-1] * scale)
                setup_took = perf_counter() - t0
        m.probes.extend(run.reference)
        longest = max(m.walls[False] + m.walls[True])
        if i >= (2 if trace else 1) and \
                perf_counter() - start + longest + setup_took > args.seconds:
            break
    while not trace and len(m.setup) < SETUP_SAMPLES:
        m.setup.append(_setup_probe_in_fresh_process(args))
        m.scaled_setup.append(m.setup[-1] * scale)
    return run, m, tracer


def _end_to_end(m: Measured) -> dict:
    lat = sorted(m.scaled_latencies)
    return {
        "wall_s": statistics.median(m.scaled_walls[False]),
        "item_p50_us": _percentile(lat, 0.50) * 1e6,
        "item_p99_us": _percentile(lat, 0.99) * 1e6,
        "setup_s": statistics.median(m.scaled_setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer(run, m: Measured, seconds: dict, calls: dict) -> dict:
    """name -> (value, unit) for every per-layer metric, from the traced
    passes' self seconds and call counts by span name."""
    passes = len(m.walls[True])
    wall = statistics.mean(m.walls[True])
    c = run.counters

    def per_pass(name):
        return seconds.get(name, 0.0) / passes

    def us_per_call(name):
        return seconds[name] / calls[name] * 1e6 if calls.get(name) else 0.0

    out = {}
    for layer in LAYERS:
        names = [n for n in seconds if n.split(".")[0] == layer]
        busy = sum(seconds[n] for n in names) / passes
        out[layer + ".calls"] = (sum(calls[n] for n in names) / passes, "count")
        out[layer + ".busy_s"] = (busy, "s")
        out[layer + ".share"] = (busy / wall, "ratio")
    words_seen = c.get("words.enumerate_words.words", 0)
    out["words.enumerate_words.ns_per_word"] = (
        per_pass("words.enumerate_words") / words_seen * 1e9 if words_seen else 0.0, "ns")
    for name in ("words.parse_word", "words.classify", "words.extract_maximal",
                 "words.insert_many", "stats.sminv_count", "stats.sdinv_count", "stats.sminv",
                 "stats.sdinv", "paths.phi", "paths.phi_inverse", "quasisym.standardize",
                 "quasisym.split_set"):
        out[name + ".us_per_call"] = (us_per_call(name), "us")
    out["words.failed"] = (run.failed_by_layer["words"], "count")
    for name in ("qengine.sf_h_coefficient", "qengine.standard_q_count",
                 "quasisym.fundamental_expansion", "quasisym.expand_to_monomials",
                 "quasisym.direct_monomial_sum"):
        out[name + ".busy_s"] = (per_pass(name), "s")
    out["qengine.memo_entries"] = (c.get("qengine.memo_entries", 0), "count")
    out["qengine.q_binomial.hit_ratio"] = (c["qengine.q_binomial.hit_ratio"], "ratio")
    out["qengine.standard_q_count.hit_ratio"] = (c["qengine.standard_q_count.hit_ratio"],
                                                 "ratio")
    out["qengine.memo_dump_s"] = (per_pass("qengine.SfCoefficientTable.dump"), "s")
    out["qengine.memo_load_s"] = (per_pass("qengine.SfCoefficientTable.load"), "s")
    out["qengine.memo_bytes"] = (c.get("qengine.memo_bytes", 0), "bytes")
    out["qengine.warm_query_us"] = (us_per_call("qengine.sf_h_coefficient[warm]"), "us")
    out["trace.overhead_s"] = (statistics.median(m.scaled_walls[True])
                               - statistics.median(m.scaled_walls[False]), "s")
    return out


def _print_layer_table(metrics: dict, seconds: dict, calls: dict, passes: int) -> None:
    wall = sum(seconds.values()) / passes
    print("%-44s %12s %12s %8s" % ("layer / span (self time, per traced pass)",
                                   "calls", "busy_s", "share"))
    for layer in LAYERS + ("bench",):
        names = sorted(n for n in seconds if n.split(".")[0] == layer)
        busy = sum(seconds[n] for n in names) / passes
        print("%-44s %12.0f %12.6f %8.4f" % (layer, sum(calls[n] for n in names) / passes,
                                             busy, busy / wall))
        for n in names:
            print("  %-42s %12.0f %12.6f %8.4f" % (n, calls[n] / passes, seconds[n] / passes,
                                                   seconds[n] / passes / wall))
    print()
    for name, (value, unit) in metrics.items():
        print("%-44s %16.6f %s" % (name, value, unit))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("theorem-sweep", "coeff-table", "word-queries"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke test's sizes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "smirnov" / "__init__.py").is_file():
        print("bench: no program source at %s" % (SRC / "smirnov"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup_s, wl, inputs = _setup(args.workload, args.seed, args.size)
    if not Path(wl.qengine.__file__).resolve().is_relative_to(SRC):
        print("bench: smirnov imported from %s, not from %s" % (wl.qengine.__file__, SRC),
              file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    run, m, tracer = _measure(wl, args, inputs, setup_s)
    attempted, failed, failed_known = m.tally
    print("bench %s seed=%d size=%s trace=%d: %d passes (%d traced), one process, one thread, "
          "closed loop" % (args.workload, args.seed, args.size, args.trace,
                           len(m.walls[False]) + len(m.walls[True]), len(m.walls[True])))
    print("host speed: reference_work() took %.1f us (median of %d probes); times below are "
          "scaled to %.1f us" % (statistics.median(m.probes) * 1e6, len(m.probes),
                                 REFERENCE_S * 1e6))
    if args.trace:
        seconds, calls = tracer.self_times()
        metrics = _per_layer(run, m, seconds, calls)
        _print_layer_table(metrics, seconds, calls, len(m.walls[True]))
        for traced in (False, True):
            print("%s passes: scaled %s s; raw %s s" % (
                ("untraced", "traced")[traced],
                " ".join("%.3f" % t for t in m.scaled_walls[traced]),
                " ".join("%.3f" % t for t in m.walls[traced])))
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / ("trace-%s-seed%d.jsonl.gz" % (args.workload, args.seed))
        tracer.write(trace_path)
        print("%d spans written to %s" % (len(tracer), trace_path.relative_to(ROOT)))
    else:
        metrics = {name: (value, END_TO_END_UNITS[name])
                   for name, value in _end_to_end(m).items()}
        items = "%d samples from %d passes" % (len(m.scaled_latencies), len(m.walls[False]))
        notes = {"wall_s": "median of %d passes; raw %s s"
                           % (len(m.walls[False]), " ".join("%.3f" % t for t in m.walls[False])),
                 "item_p50_us": items, "item_p99_us": items,
                 "setup_s": "median of %d fresh processes; raw %s s"
                            % (len(m.setup), " ".join("%.3f" % t for t in m.setup))}
        for name, (value, unit) in metrics.items():
            print("%-14s %14.6f %-5s %s" % (name, value, unit, notes.get(name, "")))
    print("%-14s %14.6f %-5s %d of %d items failed per pass, %d of them by the known defect"
          % ("error_rate", failed / attempted, "ratio", failed, attempted, failed_known))
    for example in run.failure_examples:
        print("failure: %s" % example)
    if m.inconsistent:
        print("failure: %d passes gave other tallies than the first" % m.inconsistent)
    print(json.dumps({
        "correct": failed == failed_known and not m.inconsistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
