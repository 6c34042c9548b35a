// Internals shared by the catalog translation units. Each register_*
// function adds one slice of the paper's experiments to the registry;
// catalog.cpp calls them in the paper's order.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "harness/report.hpp"
#include "harness/scenario.hpp"
#include "npb/npb.hpp"
#include "profiles/profiles.hpp"

namespace gridsim::scenarios::detail {

/// Ping-pong figures and tables: fig3/5/6/7, table4, table5, plus the
/// buffer-size ablation and the MPICH-G2 extension.
void register_pingpong_catalog(harness::ScenarioRegistry& reg);

/// Slow-start studies: fig9, the pacing ablation, the TCP-algorithm
/// extension.
void register_slowstart_catalog(harness::ScenarioRegistry& reg);

/// NPB campaigns: table2, fig10..fig13, the collective/heterogeneity
/// ablations, the placement and traffic-matrix extensions.
void register_nas_catalog(harness::ScenarioRegistry& reg);

/// The ray2mesh application: table6, table7.
void register_apps_catalog(harness::ScenarioRegistry& reg);

/// Robustness under injected WAN faults: loss-episode sweeps per
/// implementation, RTT jitter, link flap, background cross traffic, and the
/// packet-level loss models (simfault).
void register_robust_catalog(harness::ScenarioRegistry& reg);

/// Model-checking targets for `gridsim mc`: small-rank wildcard-racing
/// workloads with interleaving-invariant metrics, plus a seeded deadlock
/// fixture. Also runnable (and digest-pinned) under the default
/// arrival-order arbiter like any other scenario.
void register_mc_catalog(harness::ScenarioRegistry& reg);

/// Lint fixtures for the campaign's race verdict (docs/race-detection.md):
/// one deliberately racy wildcard workload (R1 fires, races_expected) and
/// its race-free twin whose candidate sends are happens-before-ordered
/// through a token, so the analyzer proves zero races and the
/// model-checker's HB persistent sets collapse the exploration to one
/// execution.
void register_lint_catalog(harness::ScenarioRegistry& reg);

/// The collective-algorithm layer (`gridsim coll`, docs/collectives.md):
/// per-implementation performance-guideline sweeps that fail the campaign
/// on any violation, the deliberately mis-ruled negative fixture that must
/// be caught, registry-driven algorithm-equivalence sweeps, and the
/// selector / fluent-builder API surface.
void register_coll_catalog(harness::ScenarioRegistry& reg);

/// TCP baseline + the four implementations, in the paper's order.
std::vector<mpi::ImplProfile> profiles_with_tcp();

/// The implementation behind a "group/variant" scenario name.
inline std::string variant_of(const std::string& scenario_name) {
  const auto slash = scenario_name.find('/');
  return slash == std::string::npos ? scenario_name
                                    : scenario_name.substr(slash + 1);
}

/// Per-kernel seconds recovered from a scenario's metrics ("<kernel><suffix>").
inline std::map<npb::Kernel, double> kernel_metrics(
    const harness::ScenarioResult& res, const std::string& suffix) {
  std::map<npb::Kernel, double> out;
  for (npb::Kernel k : npb::all_kernels())
    out[k] = res.metric(npb::name(k) + suffix);
  return out;
}

/// Renders a kernel x implementation table of values.
std::string render_kernel_table(
    const std::string& title, const std::vector<std::string>& impl_names,
    const std::vector<std::map<npb::Kernel, double>>& per_impl,
    int precision = 2);

}  // namespace gridsim::scenarios::detail
