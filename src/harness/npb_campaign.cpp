#include "harness/npb_campaign.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "simcore/simulation.hpp"

namespace gridsim::harness {

namespace {

Task<void> timed_kernel(mpi::Rank* r, npb::Kernel k, npb::Class c,
                        SimTime* finish) {
  co_await npb::run_kernel(*r, k, c);
  *finish = r->sim().now();
}

}  // namespace

NpbRunResult run_npb(const topo::GridSpec& spec, int nranks, npb::Kernel k,
                     npb::Class c, const profiles::ExperimentConfig& cfg,
                     SimTime timeout, const SimHooks& hooks) {
  npb::validate_ranks(k, nranks);
  std::optional<ScopedSimHooks> own_hooks;
  if (hooks.on_start || hooks.on_finish) own_hooks.emplace(&hooks);
  Simulation sim;
  topo::Grid grid(sim, spec);
  auto faults = topo::install_faults(grid, cfg.faults);
  mpi::Job job(grid, mpi::block_placement(grid, nranks), cfg.profile,
               cfg.kernel);
  std::vector<SimTime> finish(static_cast<size_t>(nranks), 0);
  for (int rank = 0; rank < nranks; ++rank) {
    sim.spawn(timed_kernel(&job.rank(rank), k, c,
                           &finish[static_cast<size_t>(rank)]));
  }
  NpbRunResult result;
  if (timeout > 0) {
    sim.run_until(timeout);
    result.timed_out = sim.live_processes() > 0;
  } else {
    sim.run();
    // A deadlocked program leaves processes blocked with no events.
    result.timed_out = sim.live_processes() > 0;
  }
  result.makespan = result.timed_out
                        ? (timeout > 0 ? timeout : sim.now())
                        : *std::max_element(finish.begin(), finish.end());
  result.traffic = job.traffic();
  result.degraded_progress_events = job.degraded_progress_events();
  return result;
}

}  // namespace gridsim::harness
