#!/usr/bin/env python3
"""Self-tests of the gridsim benchmark (about a minute and a half).

    python3 perfbench/selftest.py

1. Perturbing one pinned reference value makes a timed run report exactly
   one failed cell.
2. Two traced runs report identical per-layer counts, and neither reports
   an error: the traced composition (topo::Grid + mpi::Job +
   npb::run_kernel) simulates exactly what the timed harness::run_npb path
   does, which the bench program checks cell by cell.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's own runner)

# Per-layer metrics that are counts of simulated work, not host time.
COUNTS = ("simcore.events", "simcore.events_per_msg",
          "simcore.peak_queue_depth", "simcore.callback_spills",
          "simcore.pool_misses", "simnet.solves", "simnet.fast_share",
          "simnet.peak_component_flows", "simtcp.loss_events",
          "simtcp.connections", "simtcp.bytes_delivered", "mpi.msgs",
          "mpi.ctrl_per_msg", "mpi.payload_mb", "collectives.msgs",
          "harness.simulations", "harness.trace_events",
          "simlint.comm_events", "simlint.hb_edges")


def expect(cond, what):
    print("%s: %s" % ("ok" if cond else "FAIL", what), flush=True)
    return bool(cond)


def perturbed_reference_fails():
    ref = json.loads(run.REFERENCE.read_text())
    ref["npb_lu"]["grid8x8/LU"]["makespan_ns"] += 1
    args = argparse.Namespace(workload="npb_lu", seed=1, seconds=1)
    _, attempted, failed = run.timed_run(args, ref)
    return expect(failed == {"grid8x8/LU"} and attempted == 2,
                  "a perturbed reference value fails exactly one cell "
                  "(failed %s of %d)" % (sorted(failed), attempted))


def traced_runs_repeat():
    first = run.run_bench(["--workload", "npb_bulk", "--traced"])
    second = run.run_bench(["--workload", "npb_bulk", "--traced"])
    ok = expect(not first["errors"] and not second["errors"],
                "traced runs report no errors (composition equals run_npb, "
                "passes agree)")
    differ = [m for m in COUNTS if first["layers"][m] != second["layers"][m]]
    ok &= expect(not differ, "two traced runs report identical counts%s"
                 % (": " + ", ".join(differ) if differ else ""))
    ok &= expect(first["layers"]["simtcp.loss_events"] > 0,
                 "the traced npb_bulk run sees TCP losses")
    return ok


def main():
    run.build()
    ok = perturbed_reference_fails()
    ok &= traced_runs_repeat()
    print("selftest: %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
