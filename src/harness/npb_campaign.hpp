// Campaign runner for the NPB experiments (Figs 10-13, Table 2).
#pragma once

#include "mpi/mpi.hpp"
#include "npb/npb.hpp"
#include "profiles/profiles.hpp"
#include "topology/grid5000.hpp"

namespace gridsim::harness {

struct NpbRunResult {
  SimTime makespan = 0;  ///< completion time of the slowest rank
  bool timed_out = false;  ///< the run exceeded the virtual-time limit
  mpi::TrafficStats traffic;
  /// TCP stall (RTO-like) events across the job (see mpi::Job); nonzero
  /// only under an active fault plan.
  int degraded_progress_events = 0;
};

/// Runs one kernel at one class over `nranks` block-placed ranks.
/// `timeout` bounds the *virtual* time, mirroring the paper's batch-system
/// walltime limit (their MPICH-Madeleine BT/SP runs "timed out"); 0 = no
/// limit. A timed-out result reports the partial traffic and
/// makespan = timeout.
///
/// Like every runner, the Simulation reports to the thread's ScopedSimHooks
/// guard. Non-empty `hooks` are installed as that guard for this one run
/// instead: the benchmark's NPB cells arm their per-cell wall-clock
/// watchdog through it, which is why this runner alone keeps a hooks
/// parameter.
NpbRunResult run_npb(const topo::GridSpec& spec, int nranks, npb::Kernel k,
                     npb::Class c, const profiles::ExperimentConfig& cfg,
                     SimTime timeout = 0, const SimHooks& hooks = {});

}  // namespace gridsim::harness
