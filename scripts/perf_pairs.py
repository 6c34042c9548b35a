#!/usr/bin/env python3
"""Paired perfbench runs of two source checkouts.

    scripts/perf_pairs.py PARENT_DIR CHANGE_DIR --workload npb_bulk \\
        --pairs 10 --seconds 50

Runs `python3 perfbench/run.py` once per side and pair, in each checkout,
alternating which side runs first and giving each pair its own seed. For
each end-to-end metric of BENCHMARK.json it then prints both sides'
medians, the parent's q1-q3, the relative change of the medians and the
number of pairs the change won (ties count for neither). A gain holds when
the change wins at least nine pairs in ten and its median beats the
parent's by more than the parent's q1-q3 spread. Exits non-zero when a
run fails a cell or prints no result. Each checkout builds its own bench
program on first use (see perfbench/README.md).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_side(checkout, workload, seed, seconds):
    """One timed perfbench run in `checkout`; returns its result object."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None or "metrics" not in result:
        raise SystemExit("perf_pairs: %s (seed %d) printed no result, exit %d"
                         % (checkout, seed, proc.returncode))
    if result.get("failed", 0) > 0 or proc.returncode != 0:
        raise SystemExit("perf_pairs: %s (seed %d): %s failed cells, exit %d"
                         % (checkout, seed, result.get("failed"),
                            proc.returncode))
    return result["metrics"]


def quartiles(values):
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=50)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    runs = {"parent": [], "change": []}
    for pair in range(args.pairs):
        seed = pair + 1
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            checkout = args.parent if side == "parent" else args.change
            runs[side].append(run_side(checkout, args.workload, seed,
                                       args.seconds))
        summary = ", ".join(
            "%s %.4g -> %.4g" % (m["name"],
                                 runs["parent"][-1][m["name"]]["value"],
                                 runs["change"][-1][m["name"]]["value"])
            for m in metrics)
        print("pair %d/%d (seed %d, %s first): %s"
              % (pair + 1, args.pairs, seed, order[0], summary), flush=True)

    print("%s, %d pairs at --seconds %g: parent -> change medians"
          % (args.workload, args.pairs, args.seconds))
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        parent = [r[name]["value"] for r in runs["parent"]]
        change = [r[name]["value"] for r in runs["change"]]
        p_med, c_med = statistics.median(parent), statistics.median(change)
        q1, q3 = quartiles(parent)
        wins = sum(1 for p, c in zip(parent, change)
                   if (c < p if lower else c > p))
        rel = (c_med - p_med) / p_med * 100 if p_med else float("nan")
        gain = (p_med - c_med if lower else c_med - p_med) > q3 - q1
        print("  %-12s %.4g -> %.4g %s  (%+.1f%%, parent q1-q3 %.4g-%.4g, "
              "change won %d/%d%s)"
              % (name, p_med, c_med, m["unit"], rel, q1, q3, wins, args.pairs,
                 ", gain" if gain and wins * 10 >= 9 * args.pairs else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
