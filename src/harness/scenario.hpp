// Scenario registry: first-class experiment descriptions.
//
// The paper's reproduction is a cross-product of message sizes, five
// implementations, three tuning levels and several topologies. Instead of
// one hand-rolled main() per figure, every experiment cell is registered
// once as a `ScenarioSpec` — a name, a workload closure and the schema of
// metrics it promises to produce — and every consumer (`gridsim campaign`,
// perfbench, tests) selects scenarios from one `ScenarioRegistry` by glob.
// The campaign runner (campaign.hpp) executes
// registered scenarios concurrently; group renderers reassemble per-cell
// results into the paper's tables and charts.
//
// Contract for workload closures: a scenario builds its own Simulation(s)
// (directly or through a harness runner) and shares no mutable state with
// any other scenario, so N scenarios can run on N threads. Every simulation
// the closure runs must see `ScenarioContext::hooks` — pass it to the
// harness run_* call, or invoke `hooks.on_start` right after constructing a
// raw `Simulation` and `hooks.on_finish` after its run() returns. That is
// what lets the campaign runner trace-digest a scenario and prove the
// parallel schedule changed nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "simcore/simulation.hpp"

namespace gridsim::harness {

/// One named numeric result of a scenario (JSON-ready).
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a scenario produced. `metrics` is the machine-readable part and is
/// validated against the spec's `expected_metrics`; `cells` carries
/// preformatted row fragments for the group renderer; `text` is an optional
/// standalone rendering (e.g. a per-series CSV block).
struct ScenarioResult {
  std::vector<Metric> metrics;
  std::vector<std::string> cells;
  std::string text;
  std::string note;  ///< one-line human summary

  ScenarioResult& add(std::string name, double value, std::string unit = {}) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
    return *this;
  }
  /// Value of the named metric; throws std::out_of_range if absent.
  double metric(const std::string& name) const;
  bool has_metric(const std::string& name) const;
};

/// Per-run inputs handed to the workload closure.
struct ScenarioContext {
  SimHooks hooks;          ///< must observe every Simulation the scenario runs
  std::uint64_t seed = 1;  ///< for scenarios with stochastic inputs
};

using ScenarioFn = std::function<ScenarioResult(const ScenarioContext&)>;

/// One registered experiment cell.
struct ScenarioSpec {
  std::string name;         ///< unique, "group/variant" by convention
  std::string group;        ///< paper artifact ("fig3", "table4", ...)
  std::string description;  ///< one line for --list and reports
  /// Output schema: metric names the result must contain. The runner fails
  /// the scenario (without aborting the campaign) if one is missing.
  std::vector<std::string> expected_metrics;
  /// MPI ranks the workload simulates; 0 = not declared. Consumers that
  /// must bound state-space size (`gridsim mc --ranks-cap`) skip scenarios
  /// that do not declare a rank count within the cap.
  int ranks = 0;
  /// The workload intentionally contains wildcard-receive races (e.g. a
  /// master/worker pattern whose result is interleaving-invariant).
  /// The campaign's lint verdict is then "expected-races" (passing)
  /// instead of "races" (failing the scenario). Leaks (rule R3) always
  /// fail.
  bool races_expected = false;
  ScenarioFn run;
};

/// Reassembles one group's per-scenario results into the paper's
/// table/figure text. Results arrive in registration order, failed
/// scenarios as default-constructed ScenarioResults (check `ok`).
using GroupRenderer = std::function<std::string(
    const std::vector<const ScenarioSpec*>& specs,
    const std::vector<const ScenarioResult*>& results)>;

class ScenarioRegistry {
 public:
  /// Registers a scenario. Throws std::invalid_argument on an empty name,
  /// a missing workload closure, or a name collision — silently shadowing
  /// an experiment would corrupt every downstream aggregate.
  void add(ScenarioSpec spec);

  /// Registers the renderer that turns a group's results back into the
  /// figure/table text. Throws std::invalid_argument on collision.
  void set_renderer(const std::string& group, GroupRenderer render);

  const std::vector<ScenarioSpec>& scenarios() const { return scenarios_; }

  /// Indices (registration order) of scenarios whose name or group matches
  /// the glob.
  std::vector<std::size_t> match(const std::string& pattern) const;

  /// nullptr if absent.
  const ScenarioSpec* find(const std::string& name) const;
  const GroupRenderer* renderer(const std::string& group) const;

  /// Distinct group names in first-registration order.
  std::vector<std::string> groups() const;

 private:
  std::vector<ScenarioSpec> scenarios_;
  std::map<std::string, std::size_t> by_name_;
  std::map<std::string, GroupRenderer> renderers_;
};

}  // namespace gridsim::harness
