#!/usr/bin/env python3
"""gridsim benchmark: one command that builds, runs, checks and reports.

    python3 perfbench/run.py --workload npb_lu --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout. The first run builds the bench
program (perfbench/bench.cpp) and the simulator layers into .bench_build/.
A timed run (--trace 0) samples the set-up time in several fresh bench
processes, then starts one bench process that warms up with one untimed
pass over the workload and times passes until --seconds are used up. It
reports the medians of the end-to-end metrics, the pass times scaled by a
yardstick read between the passes (see perfbench/README.md). A traced run
(--trace 1) starts one traced bench process and reports the per-layer
metrics; its spans go to .bench_build/spans/. Every run checks each cell's
simulated outputs against perfbench/reference.json. The last line of stdout
is one JSON object; the exit code is 0 only if every expected cell ran and
matched.

    python3 perfbench/run.py --pin      # re-pin perfbench/reference.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BENCH_BIN = BUILD_DIR / "gridsim_perfbench"
REFERENCE = BENCH_DIR / "reference.json"
WORKLOADS = ("npb_lu", "npb_bulk", "campaign_nas")
# Reference section of the traced campaign_nas run's composed NPB cells.
COMPOSED = "campaign_nas.composed"
# Relative tolerance for floating-point simulated outputs; counts and
# makespans (integer nanoseconds) must match exactly.
FLOAT_RTOL = 1e-9
# Fresh processes whose set-up time a timed run takes the median of.
SETUP_PROCESSES = 15
# Host times are scaled to a host on which one yardstick chunk takes this
# long, about what it takes on the 4-core Xeon VM of the README's baseline
# in a fast phase ...
YARDSTICK_CHUNK_S = 0.0035
# ... by (YARDSTICK_CHUNK_S / chunk) ** YARDSTICK_ELASTICITY: when the host
# slows down, the simulation slows down less than the yardstick does.
YARDSTICK_ELASTICITY = 0.8
# Seconds after the build within which a run gives up on the bench program.
RUN_LIMIT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the bench program; output to stderr."""
    if not (ROOT / "src" / "harness" / "campaign.hpp").is_file():
        raise SystemExit("perfbench: no simulator sources under %s/src" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr)


def run_bench(args, limit_s=RUN_LIMIT_S):
    """Runs the bench program to completion and returns its JSON result.
    A program still running after `limit_s` seconds is killed."""
    try:
        proc = subprocess.run([str(BENCH_BIN)] + args, stdout=subprocess.PIPE,
                              text=True, check=False, timeout=max(1, limit_s))
    except subprocess.TimeoutExpired:
        raise SystemExit("perfbench: gridsim_perfbench %s did not finish in "
                         "%.0f s" % (" ".join(args), limit_s))
    if proc.returncode != 0:
        raise SystemExit("perfbench: gridsim_perfbench %s exited with %d"
                         % (" ".join(args), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def close(a, b):
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b))
    return a == b


def mismatches(cell, expected):
    """Fields where a cell's outputs differ from its pinned reference."""
    want = expected.get(cell["name"])
    if want is None:
        return ["no reference"]
    if not cell.get("ok"):
        return ["failed: %s" % (cell.get("error") or cell.get("status"))]
    bad = []
    for key, value in want.items():
        if key == "metrics":
            got = cell.get("metrics", {})
            bad += ["metrics.%s" % m for m, v in value.items()
                    if m not in got or not close(got[m], v)]
            bad += ["metrics.%s (extra)" % m for m in got if m not in value]
        elif key not in cell or not close(cell[key], value):
            bad.append(key)
    return bad


def check(cells, expected, failed):
    """Adds to the set `failed` the names of the cells whose outputs differ
    from `expected`, and of the expected cells that did not run."""
    for cell in cells:
        bad = mismatches(cell, expected)
        if bad:
            log("perfbench: %s differs from the reference: %s"
                % (cell["name"], ", ".join(bad)))
            failed.add(cell["name"])
    for name in sorted(expected.keys() - {c["name"] for c in cells}):
        log("perfbench: %s did not run" % name)
        failed.add(name)
    return len(expected.keys() | {c["name"] for c in cells})


def scaled(samples, key):
    """Each sample's host time `key`, scaled by its yardstick reading."""
    return [s[key] * (YARDSTICK_CHUNK_S / s["chunk_s"]) ** YARDSTICK_ELASTICITY
            for s in samples]


def timed_run(args, reference):
    """Samples the set-up time, then runs the workload's timed passes for
    the rest of --seconds; medians per metric."""
    start = time.monotonic()
    expected = reference[args.workload]
    setup = [run_bench(["--workload", args.workload, "--setup-only"])
             for _ in range(SETUP_PROCESSES)]
    res = run_bench(["--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", "%.3f" % (args.seconds -
                                            (time.monotonic() - start))],
                    RUN_LIMIT_S - (time.monotonic() - start))
    passes = res["passes"]
    failed = set()
    attempted = check(res["warmup_cells"], expected, failed)
    for p in passes:
        check(p["cells"], expected, failed)
    log("perfbench: %s: warm-up %.3f s, %d timed passes in %.1f s; "
        "wall_s %s; host seconds %s; yardstick chunk ms %s"
        % (args.workload, res["warmup_s"], len(passes),
           time.monotonic() - start,
           " ".join("%.3f" % v for v in scaled(passes, "wall_s")),
           " ".join("%.3f" % p["wall_s"] for p in passes),
           " ".join("%.3f" % (1e3 * p["chunk_s"]) for p in passes)))
    metrics = {
        "wall_s": statistics.median(scaled(passes, "wall_s")),
        "cpu_s": statistics.median(scaled(passes, "cpu_s")),
        "setup_s": statistics.median(scaled(setup, "setup_s")),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    return metrics, attempted, failed


def traced_run(args, reference):
    spans = ROOT / ".bench_build" / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    path = spans / ("%s-seed%d.json" % (args.workload, args.seed))
    res = run_bench(["--workload", args.workload, "--seed", str(args.seed),
                     "--traced", "--spans", str(path)])
    log("perfbench: spans written to %s" % path)
    if "trace_overhead_s" in res:
        log("perfbench: tracing overhead %.3f s over the timed path's %.3f s"
            % (res["trace_overhead_s"], res["timed_wall_s"]))
    failed = set()
    for err in res["errors"]:
        log("perfbench: traced cell failed: %s" % err)
        failed.add(err.split(":")[0])
    attempted = check(res["cells"], reference[args.workload], failed)
    if "composed_cells" in res:
        attempted += check(res["composed_cells"], reference[COMPOSED], failed)
    return res["layers"], attempted, failed


def pinned(cells):
    """The reference entries of a run's cells."""
    out = {}
    for cell in cells:
        if not cell["ok"]:
            raise SystemExit("perfbench: cannot pin failed cell %s: %s"
                             % (cell["name"], cell["error"]))
        out[cell["name"]] = {k: v for k, v in cell.items()
                             if k not in ("name", "ok", "error")}
    return out


def pin():
    """Re-pins reference.json from the current build's simulated outputs."""
    ref = {w: pinned(run_bench(["--workload", w, "--seed", "1"])
                     ["warmup_cells"])
           for w in WORKLOADS}
    traced = run_bench(["--workload", "campaign_nas", "--seed", "1",
                        "--traced"])
    ref[COMPOSED] = pinned(traced["composed_cells"])
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    log("perfbench: pinned %s in %s"
        % (", ".join("%d %s cells" % (len(v), k) for k, v in ref.items()),
           REFERENCE))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="re-pin the reference from this build")
    args = parser.parse_args()
    if not args.pin and args.workload is None:
        parser.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build()
    if args.pin:
        pin()
        return 0
    reference = json.loads(REFERENCE.read_text())
    if args.trace:
        values, attempted, failed = traced_run(args, reference)
        declared = spec["per_layer"]
    else:
        values, attempted, failed = timed_run(args, reference)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
