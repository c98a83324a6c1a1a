#!/usr/bin/env python3
"""Run the benchmark of two checkouts in alternating pairs and record the result.

Each side runs its own bench/run.py, from its own directory, one process at a
time: the parent first in odd pairs, the change first in even pairs.  The
end-to-end metrics of every run go to BENCH_<label>.json in the current
directory, per seed and pooled over the seeds: the median, quartiles and runs
(in pair order) of each side, the change against the parent's median, the
pairs in which the change read lower, and whether the difference is resolved:
the medians differ by more than the spread q3 - q1 of the parent's own runs.
Beside them go the pass counts of each side's runs, in the same order, which
peak_rss_mb grows with.  A file that
already exists keeps its other workloads and its hand-written "change",
"claim" and "notes".

The record is written in any case.  The script then names on stderr each seed
whose parent and change runs tally different attempted/failed counts, and
exits 1 if any run reports "correct": false, so that a gain measured on wrong
outputs does not pass as a result.

Usage: python scripts/bench_pairs.py --parent DIR --change DIR --workload W
           --seeds 0 1 --pairs 5 --label L [--seconds 40] [--size full]
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys


def run_bench(root: str, workload: str, seed: int, seconds: float, size: str) -> dict:
    """The JSON result line of one `bench/run.py --trace 0` run in `root`,
    with "passes" added: the pass count its first line reports."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0", "--size", size],
        cwd=root, env=env, capture_output=True, text=True)
    if proc.returncode:
        sys.exit("bench in %s failed:\n%s" % (root, proc.stderr))
    lines = proc.stdout.splitlines()
    passes = re.search(r": (\d+) passes", lines[0])
    if passes is None:
        sys.exit("bench in %s reported no pass count: %r" % (root, lines[0]))
    return dict(json.loads(lines[-1]), passes=int(passes[1]))


def spread(runs: list) -> dict:
    if len(runs) > 1:
        q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    else:
        q1 = q3 = runs[0]
    return {"median": round(statistics.median(runs), 6), "q1": round(q1, 6),
            "q3": round(q3, 6), "runs": [round(r, 6) for r in runs]}


def summary(pairs: list, bounds: dict) -> dict:
    """The entry of one seed, or of several pooled, from its (parent, change) results."""
    tallies = {side: sorted({"correct=%s attempted=%d failed=%d"
                             % (r["correct"], r["attempted"], r["failed"]) for r in results})
               for side, results in zip(("parent", "change"), zip(*pairs))}
    metrics = {}
    for name, first in pairs[0][0]["metrics"].items():
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        entry = {"unit": first["unit"], "bound": bounds.get(name),
                 "parent": spread(parent), "change": spread(change)}
        entry["change_vs_parent"] = round(entry["change"]["median"] / entry["parent"]["median"]
                                          - 1, 4) if entry["parent"]["median"] else None
        entry["pairs_change_lower"] = "%d/%d" % (sum(c < p for p, c in zip(parent, change)),
                                                 len(pairs))
        entry["resolved"] = (abs(entry["change"]["median"] - entry["parent"]["median"])
                             > entry["parent"]["q3"] - entry["parent"]["q1"])
        metrics[name] = entry
    # peak_rss_mb grows with the passes that fit in a run, so record them beside it
    passes = {side: spread([r["passes"] for r in results])
              for side, results in zip(("parent", "change"), zip(*pairs))}
    return {"pairs": len(pairs), "tallies": tallies, "passes": passes, "metrics": metrics}


def check_runs(per_seed: dict) -> tuple:
    """(wrong, differ) of the runs, per_seed mapping a seed's label to its
    (parent, change) results: a message for each run that reports "correct":
    false, and one for each seed whose parent and change runs tally different
    attempted/failed counts."""
    wrong, differ = [], []
    for seed, pairs in per_seed.items():
        for n, pair in enumerate(pairs, 1):
            for side, result in zip(("parent", "change"), pair):
                if not result["correct"]:
                    wrong.append("%s pair %d: the %s run reports correct=false" % (seed, n, side))
        parent, change = (sorted({"attempted=%d failed=%d" % (r["attempted"], r["failed"])
                                  for r in results}) for results in zip(*pairs))
        if parent != change:
            differ.append("%s: attempted/failed differ, parent %s, change %s"
                          % (seed, " ".join(parent), " ".join(change)))
    return wrong, differ


def git_head(root: str) -> str:
    """The short commit of root when root is the top directory of a git
    checkout, else root's absolute path: a copy made with git archive, or a
    directory inside another checkout, has no commit of its own."""
    def git(*args) -> str:
        return subprocess.run(["git", "-C", root, *args],
                              capture_output=True, text=True).stdout.strip()
    path = os.path.realpath(root)
    top = git("rev-parse", "--show-toplevel")
    if top and os.path.realpath(top) == path:
        return git("rev-parse", "--short", "HEAD") or path
    return path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--label", required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()

    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    per_seed, seed_pairs, pooled = {}, {}, []
    for seed in args.seeds:
        pairs = []
        for i in range(1, args.pairs + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            out = {side: run_bench(sides[side], args.workload, seed, args.seconds, args.size)
                   for side in order}
            print("%s seed %d pair %d: wall_s parent %.3f change %.3f" % (
                args.workload, seed, i, out["parent"]["metrics"]["wall_s"]["value"],
                out["change"]["metrics"]["wall_s"]["value"]), file=sys.stderr)
            pairs.append((out["parent"], out["change"]))
        per_seed["seed %d" % seed] = summary(pairs, bounds)
        seed_pairs["seed %d" % seed] = pairs
        pooled += pairs
    if len(args.seeds) > 1:
        per_seed["both seeds" if len(args.seeds) == 2 else "all seeds"] = summary(pooled, bounds)

    path = "BENCH_%s.json" % args.label
    record = {"label": args.label, "change": "", "parent_commit": None, "command": "",
              "protocol": "", "host": "", "claim": {}, "notes": [], "workloads": {}}
    if os.path.exists(path):
        with open(path) as fh:
            record.update(json.load(fh))
    record.update({
        "parent_commit": git_head(args.parent),
        "command": "python3 bench/run.py --workload <workload> --seed <seed> --seconds %g "
                   "--trace 0%s" % (args.seconds, "" if args.size == "full"
                                    else " --size " + args.size),
        "protocol": "alternating pairs, each side run from its own checkout of the same bench/ "
                    "code: the parent first in odd pairs, the change first in even pairs; one "
                    "process at a time; PYTHONDONTWRITEBYTECODE=1, so every run compiles the "
                    "source",
        "host": "%d-core %s %s, %s %s" % (len(os.sched_getaffinity(0)), platform.machine(),
                                          platform.system(), platform.python_implementation(),
                                          platform.python_version()),
    })
    record["workloads"][args.workload] = per_seed
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print("wrote %s" % path, file=sys.stderr)
    wrong, differ = check_runs(seed_pairs)
    for line in differ + wrong:
        print(line, file=sys.stderr)
    if wrong:
        sys.exit(1)


if __name__ == "__main__":
    main()
