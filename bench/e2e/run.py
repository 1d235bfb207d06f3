#!/usr/bin/env python3
"""Build and run the end-to-end benchmark, or compare two sets of runs.

Run from the repository root:

  python3 bench/e2e/run.py [--workload W] [--seed N] [--seconds S]
                           [--trace 0|1] [--smoke] [--out DIR]
  python3 bench/e2e/run.py --compare DIR_A DIR_B [--bounds BENCHMARK.json]

The first form configures the repository build with bench/e2e attached
(attach.cmake) into $CARGO_TARGET_DIR, or .bench_build when that is
unset, builds the upin_e2e target and its libraries, then runs it.
Build output goes to standard error; the last line of standard output
is upin_e2e's JSON result.  Journals, shards and trace files stay
inside the build directory.

The second form reads the --out files of two sets of runs (DIR_A the
parent, DIR_B the change), pairs runs by seed, and prints for each
workload and end-to-end metric both medians and quartiles, the bound
from BENCHMARK.json and a verdict (README.md, "Comparing two commits").
"""
import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def build(build_dir):
    """Configure the repository build once, with bench/e2e attached, then
    build the upin_e2e target; exit on failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      "-DCMAKE_PROJECT_upin_scion_INCLUDE="
                      + os.path.join(HERE, "attach.cmake")])
    steps.append(["cmake", "--build", build_dir, "--target", "upin_e2e",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("run.py: build failed: " + " ".join(step))
    return os.path.join(build_dir, "upin_e2e")


def run(args):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    binary = build(build_dir)
    command = [binary, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace),
               "--data-dir", os.path.join(build_dir, "data"),
               "--trace-dir", build_dir]
    if args.workload:
        command += ["--workload", args.workload]
    if args.smoke:
        command.append("--smoke")
    if args.out:
        command += ["--out", args.out]
    return subprocess.run(command).returncode


def load_runs(directory):
    """workload -> [(seed, metrics)] of the untraced runs, by seed."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as handle:
            record = json.load(handle)
        if record["trace"]:
            continue
        metrics = {name: entry["value"]
                   for name, entry in record["result"]["metrics"].items()}
        runs.setdefault(record["workload"], []).append(
            (record["seed"], metrics))
    for workload_runs in runs.values():
        workload_runs.sort(key=lambda run: run[0])
    return runs


def summary(values):
    """(median, q1, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def verdict(parent, change, bound, lower_is_better):
    """The choosing-metrics rule: a gain needs >= 10 pairs, a 9/10 win
    rate and a median gap wider than the parent's IQR; a spread wider
    than the bound leaves the metric unresolved unless the runs separate."""
    def better(a, b):  # is value b better than value a?
        return b < a if lower_is_better else b > a

    pairs = list(zip(parent, change))
    wins = sum(1 for a, b in pairs if better(a, b))
    med_a, q1_a, q3_a = summary(parent)
    med_b, _, _ = summary(change)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and abs(med_b - med_a) > q3_a - q1_a and better(med_a, med_b)):
        return "better"
    if med_a != 0 and (q3_a - q1_a) / abs(med_a) > bound:
        if all(better(b, a) for a in parent for b in change):
            return "worse"
        if all(better(a, b) for a in parent for b in change):
            return "same"
        return "unresolved"
    limit = med_a * (1 + bound) if lower_is_better else med_a * (1 - bound)
    if better(med_b, limit):
        return "worse"
    return "same"


def compare(dir_a, dir_b, bounds_path):
    with open(bounds_path) as handle:
        spec = json.load(handle)
    parent, change = load_runs(dir_a), load_runs(dir_b)
    print("%-15s %-12s %32s %32s %7s %6s  %s" % (
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]",
        "shift", "bound", "verdict"))
    worse = False
    for workload in sorted(set(parent) & set(change)):
        a_runs, b_runs = parent[workload], change[workload]
        if [s for s, _ in a_runs] != [s for s, _ in b_runs]:
            print("%s: the two sides ran different seeds" % workload,
                  file=sys.stderr)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [m[name] for _, m in a_runs]
            b = [m[name] for _, m in b_runs]
            result = verdict(a, b, metric["bound"],
                             metric["better"] == "lower")
            worse |= result == "worse"
            med_a, med_b = summary(a)[0], summary(b)[0]
            shift = "%+.3f" % (med_b / med_a - 1) if med_a else "-"
            print("%-15s %-12s %32s %32s %7s %6.2f  %s" % (
                workload, name, "%.4g [%.4g, %.4g]" % summary(a),
                "%.4g [%.4g, %.4g]" % summary(b), shift, metric["bound"],
                result))
    return 1 if worse else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"))
    parser.add_argument("--bounds", default="BENCHMARK.json")
    args = parser.parse_args()
    if args.compare:
        return compare(args.compare[0], args.compare[1], args.bounds)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
