// The collective-algorithm layer's catalog group (`coll/*`): guideline
// verification per implementation, the deliberately mis-ruled negative
// fixture, algorithm-equivalence sweeps over the registry, and the
// selector / fluent-builder API surface — all digest-pinned like every
// other campaign scenario (tests/catalog_test.cpp).
//
//  * coll/verify-<impl> — the Hunold-style guideline sweep
//    (collectives/guidelines.hpp) over cluster, grid and cyclic-placement
//    grid; the scenario THROWS on any violation, so the campaign fails if
//    a rule-table change breaks a guideline.
//  * coll/misrule-fixture — the inverted van de Geijn cutoff; the scenario
//    throws unless the sweep catches it as a "monotone-bcast" violation,
//    proving the harness can detect a bad selector.
//  * coll/equiv-* — every registered algorithm per operation, selected by
//    name through a rule put ahead of the profile's decision table, must
//    complete and move the operation's lower-bound traffic.
//  * coll/decision-table, coll/selector-rules — the registry/selector
//    introspection surface: the shipped tables' size and cutoffs, and
//    topology-scoped rules through the builder's one collective knob,
//    `.selector()`.
#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "collectives/collectives.hpp"
#include "collectives/guidelines.hpp"
#include "collectives/registry.hpp"
#include "collectives/selector.hpp"
#include "mpi/mpi.hpp"
#include "scenarios/catalog_internal.hpp"
#include "topology/grid5000.hpp"

namespace gridsim::scenarios::detail {

namespace {

using harness::ScenarioContext;
using harness::ScenarioRegistry;
using harness::ScenarioResult;
using harness::ScenarioSpec;
using mpi::CollOp;
using mpi::Rank;

constexpr int kCollRanks = 16;
constexpr double kQuickSizes[] = {1e3, 64e3};

mpi::CollRule pure_rule(CollOp op, const std::string& algo) {
  mpi::CollRule r;
  r.op = op;
  r.algo = algo;
  return r;
}

/// Runs one SPMD body; returns the max per-rank finish time in seconds.
double run_timed(const topo::GridSpec& spec, int nranks,
                 const profiles::ExperimentConfig& cfg,
                 const std::function<Task<void>(Rank&)>& body,
                 mpi::TrafficStats* stats = nullptr) {
  Simulation sim;
  topo::Grid grid(sim, spec);
  mpi::Job job(grid, mpi::block_placement(grid, nranks), cfg.profile,
               cfg.kernel);
  std::vector<SimTime> finish(static_cast<size_t>(nranks), 0);
  job.launch([&body, &finish](Rank& r) -> Task<void> {
    co_await body(r);
    finish[static_cast<size_t>(r.rank())] = r.sim().now();
  });
  sim.run();
  if (stats) *stats = job.traffic();
  return to_seconds(*std::max_element(finish.begin(), finish.end()));
}

coll::GuidelineReport sweep(const mpi::ImplProfile& impl) {
  const profiles::ExperimentConfig cfg =
      profiles::experiment(impl).tuning(profiles::TuningLevel::kTcpTuned);
  coll::GuidelineReport all;
  for (const auto& d : coll::guideline_deployments()) {
    coll::GuidelineOptions opt;
    opt.sizes.assign(std::begin(kQuickSizes), std::end(kQuickSizes));
    opt.cyclic = d.cyclic;
    const coll::GuidelineReport rep =
        coll::verify_guidelines(d.spec, d.label, cfg.profile, cfg.kernel, opt);
    all.cells.insert(all.cells.end(), rep.cells.begin(), rep.cells.end());
  }
  return all;
}

double worst_ratio(const coll::GuidelineReport& rep) {
  double worst = 0;
  for (const auto& c : rep.cells) worst = std::max(worst, c.ratio);
  return worst;
}

void register_verify(ScenarioRegistry& reg, const mpi::ImplProfile& impl) {
  ScenarioSpec spec;
  spec.group = "coll";
  spec.name = "coll/verify-" + impl.name;
  spec.description = "performance-guideline sweep for " + impl.name +
                     " over cluster/grid/cyclic; fails on any violation";
  spec.expected_metrics = {"cells", "violations", "worst_ratio"};
  spec.ranks = kCollRanks;
  spec.run = [impl](const ScenarioContext&) {
    const coll::GuidelineReport rep = sweep(impl);
    ScenarioResult res;
    res.add("cells", static_cast<double>(rep.cells.size()));
    res.add("violations", rep.violations());
    res.add("worst_ratio", worst_ratio(rep));
    if (rep.violations() > 0) {
      for (const auto& c : rep.cells)
        if (c.violated)
          throw std::runtime_error(impl.name + ": guideline '" + c.guideline +
                                   "' violated on " + c.topology + " (" +
                                   c.detail + ")");
    }
    res.note = impl.name + ": " + std::to_string(rep.cells.size()) +
               " cells clean, worst ratio " +
               harness::format_double(worst_ratio(rep), 2);
    return res;
  };
  reg.add(std::move(spec));
}

void register_misrule(ScenarioRegistry& reg) {
  ScenarioSpec spec;
  spec.group = "coll";
  spec.name = "coll/misrule-fixture";
  spec.description =
      "inverted bcast cutoff must be CAUGHT as a monotone-bcast violation "
      "on the cyclic grid (negative fixture)";
  spec.expected_metrics = {"violations", "monotone_bcast_ratio"};
  spec.ranks = kCollRanks;
  spec.run = [](const ScenarioContext&) {
    const profiles::ExperimentConfig cfg =
        profiles::experiment(profiles::mpich2())
            .selector(coll::misruled_selector())
            .tuning(profiles::TuningLevel::kTcpTuned);
    coll::GuidelineOptions opt;
    opt.sizes.assign(std::begin(kQuickSizes), std::end(kQuickSizes));
    opt.cyclic = true;
    const coll::GuidelineReport rep = coll::verify_guidelines(
        topo::GridSpec::rennes_nancy(8), "grid-cyclic", cfg.profile,
        cfg.kernel, opt);
    double ratio = 0;
    for (const auto& c : rep.cells)
      if (c.violated && c.guideline == "monotone-bcast")
        ratio = std::max(ratio, c.ratio);
    if (ratio == 0)
      throw std::runtime_error(
          "the misruled selector was NOT caught: no monotone-bcast "
          "violation on the cyclic grid");
    ScenarioResult res;
    res.add("violations", rep.violations());
    res.add("monotone_bcast_ratio", ratio);
    res.note = "misrule caught: monotone-bcast ratio " +
               harness::format_double(ratio, 2) + " > " +
               harness::format_double(coll::kMonotoneTolerance, 2);
    return res;
  };
  reg.add(std::move(spec));
}

void register_equiv_bcast(ScenarioRegistry& reg) {
  ScenarioSpec spec;
  spec.group = "coll";
  spec.name = "coll/equiv-bcast";
  spec.description =
      "every registered bcast algorithm, selected by name, moves >= (p-1)*b "
      "on the grid";
  spec.expected_metrics = {"algos", "min_traffic_ratio"};
  spec.ranks = kCollRanks;
  spec.run = [](const ScenarioContext&) {
    const double bytes = 256e3;
    const double floor = (kCollRanks - 1) * bytes;
    double min_ratio = 1e9;
    const auto names = coll::AlgorithmRegistry::instance().names("bcast");
    for (const auto& name : names) {
      mpi::TrafficStats stats;
      run_timed(topo::GridSpec::rennes_nancy(8), kCollRanks,
                profiles::experiment(profiles::mpich2())
                    .selector({pure_rule(CollOp::kBcast, name)}),
                [bytes](Rank& r) -> Task<void> {
                  co_await coll::bcast(r, 0, bytes);
                },
                &stats);
      const double ratio = stats.collective_bytes / floor;
      min_ratio = std::min(min_ratio, ratio);
      if (ratio < 0.99)
        throw std::runtime_error("bcast '" + name +
                                 "' moved less than (p-1)*payload");
    }
    ScenarioResult res;
    res.add("algos", static_cast<double>(names.size()));
    res.add("min_traffic_ratio", min_ratio);
    res.note = std::to_string(names.size()) +
               " bcast algorithms complete; min traffic ratio " +
               harness::format_double(min_ratio, 2);
    return res;
  };
  reg.add(std::move(spec));
}

void register_equiv_allreduce(ScenarioRegistry& reg) {
  ScenarioSpec spec;
  spec.group = "coll";
  spec.name = "coll/equiv-allreduce";
  spec.description =
      "every registered allreduce algorithm, selected by name, completes on "
      "pow2 and non-pow2 communicators";
  spec.expected_metrics = {"algos", "max_s"};
  spec.ranks = kCollRanks;
  spec.run = [](const ScenarioContext&) {
    double max_s = 0;
    const auto names = coll::AlgorithmRegistry::instance().names("allreduce");
    for (const auto& name : names) {
      for (int nranks : {6, kCollRanks}) {
        const double s =
            run_timed(topo::GridSpec::rennes_nancy(8), nranks,
                      profiles::experiment(profiles::mpich2())
                          .selector({pure_rule(CollOp::kAllreduce, name)}),
                      [](Rank& r) -> Task<void> {
                        co_await coll::allreduce(r, 64e3);
                      });
        if (s <= 0)
          throw std::runtime_error("allreduce '" + name + "' did nothing (" +
                                   std::to_string(nranks) + " ranks)");
        max_s = std::max(max_s, s);
      }
    }
    ScenarioResult res;
    res.add("algos", static_cast<double>(names.size()));
    res.add("max_s", max_s, "s");
    res.note = std::to_string(names.size()) +
               " allreduce algorithms complete on 6 and 16 ranks";
    return res;
  };
  reg.add(std::move(spec));
}

void register_equiv_alltoall(ScenarioRegistry& reg) {
  ScenarioSpec spec;
  spec.group = "coll";
  spec.name = "coll/equiv-alltoall";
  spec.description =
      "every registered alltoall algorithm, selected by name, delivers all "
      "p*(p-1) blocks";
  spec.expected_metrics = {"algos", "min_traffic_B"};
  spec.ranks = 8;
  spec.run = [](const ScenarioContext&) {
    const int nranks = 8;
    const double per_pair = 500;
    const double floor = nranks * (nranks - 1) * per_pair;
    double min_traffic = 1e18;
    const auto names = coll::AlgorithmRegistry::instance().names("alltoall");
    for (const auto& name : names) {
      mpi::TrafficStats stats;
      run_timed(topo::GridSpec::single_cluster(8), nranks,
                profiles::experiment(profiles::mpich2())
                    .selector({pure_rule(CollOp::kAlltoall, name)}),
                [per_pair](Rank& r) -> Task<void> {
                  co_await coll::alltoall(r, per_pair);
                },
                &stats);
      min_traffic = std::min(min_traffic, stats.collective_bytes);
      if (stats.collective_bytes < floor * 0.99)
        throw std::runtime_error("alltoall '" + name +
                                 "' moved less than p*(p-1)*payload");
    }
    ScenarioResult res;
    res.add("algos", static_cast<double>(names.size()));
    res.add("min_traffic_B", min_traffic, "B");
    res.note = std::to_string(names.size()) +
               " alltoall algorithms deliver every block";
    return res;
  };
  reg.add(std::move(spec));
}

void register_equiv_barrier(ScenarioRegistry& reg) {
  ScenarioSpec spec;
  spec.group = "coll";
  spec.name = "coll/equiv-barrier";
  spec.description =
      "every registered barrier algorithm, selected by name, holds every "
      "rank until the last arrival";
  spec.expected_metrics = {"algos", "min_exit_ms"};
  spec.ranks = 8;
  spec.run = [](const ScenarioContext&) {
    const int nranks = 8;
    double min_exit_ms = 1e18;
    const auto names = coll::AlgorithmRegistry::instance().names("barrier");
    for (const auto& name : names) {
      std::vector<SimTime> after(static_cast<size_t>(nranks), -1);
      run_timed(topo::GridSpec::rennes_nancy(4), nranks,
                profiles::experiment(profiles::mpich2())
                    .selector({pure_rule(CollOp::kBarrier, name)}),
                [&after](Rank& r) -> Task<void> {
                  // Stagger arrival: rank i waits i ms first.
                  co_await r.sim().delay(milliseconds(r.rank()));
                  co_await coll::barrier(r);
                  after[static_cast<size_t>(r.rank())] = r.sim().now();
                });
      for (SimTime t : after) {
        min_exit_ms = std::min(min_exit_ms, to_seconds(t) * 1e3);
        if (t < milliseconds(nranks - 1))
          throw std::runtime_error("barrier '" + name +
                                   "' released a rank before the last "
                                   "arrival");
      }
    }
    ScenarioResult res;
    res.add("algos", static_cast<double>(names.size()));
    res.add("min_exit_ms", min_exit_ms, "ms");
    res.note = std::to_string(names.size()) +
               " barrier algorithms synchronise staggered arrivals";
    return res;
  };
  reg.add(std::move(spec));
}

void register_decision_table(ScenarioRegistry& reg) {
  ScenarioSpec spec;
  spec.group = "coll";
  spec.name = "coll/decision-table";
  spec.description =
      "registry introspection + decision-table spot checks: MPICH2's "
      "table switches at the historic cutoffs";
  spec.expected_metrics = {"bcast_algos", "allreduce_algos", "alltoall_algos",
                           "barrier_algos", "rules_total"};
  spec.run = [](const ScenarioContext&) {
    const auto& registry = coll::AlgorithmRegistry::instance();
    int rules_total = 0;
    for (const auto& impl : profiles::all_implementations())
      for (auto op : {CollOp::kBcast, CollOp::kAllreduce, CollOp::kAlltoall,
                      CollOp::kBarrier})
        rules_total += static_cast<int>(
            coll::Selector::effective_rules(*impl.collectives, op).size());
    // The historic cutoffs, as decision-table facts: MPICH2 broadcasts
    // binomially at the 12 kB cutoff and switches to the ring just above
    // it; allreduce switches at 2 kB.
    const mpi::CollTable table = profiles::mpich2().collectives;
    const auto pick = [&table](CollOp op, double bytes) {
      return coll::Selector::pick(*table, op, bytes, kCollRanks, 2).algo;
    };
    if (pick(CollOp::kBcast, coll::kBcastSmallCutoff) != "binomial" ||
        pick(CollOp::kBcast, coll::kBcastSmallCutoff + 1) != "scatter-ring" ||
        pick(CollOp::kAllreduce, coll::kAllreduceSmallCutoff) !=
            "recursive-doubling" ||
        pick(CollOp::kAllreduce, coll::kAllreduceSmallCutoff + 1) !=
            "rabenseifner")
      throw std::runtime_error(
          "MPICH2's decision table does not reproduce the historic cutoffs");
    ScenarioResult res;
    res.add("bcast_algos", static_cast<double>(registry.bcast().size()));
    res.add("allreduce_algos",
            static_cast<double>(registry.allreduce().size()));
    res.add("alltoall_algos", static_cast<double>(registry.alltoall().size()));
    res.add("barrier_algos", static_cast<double>(registry.barrier().size()));
    res.add("rules_total", rules_total);
    res.note = std::to_string(registry.bcast().size()) + "+" +
               std::to_string(registry.allreduce().size()) + "+" +
               std::to_string(registry.alltoall().size()) + "+" +
               std::to_string(registry.barrier().size()) +
               " algorithms; cutoffs reproduced";
    return res;
  };
  reg.add(std::move(spec));
}

void register_selector_rules(ScenarioRegistry& reg) {
  ScenarioSpec spec;
  spec.group = "coll";
  spec.name = "coll/selector-rules";
  spec.description =
      "topology-scoped rules: one rule set broadcasts hierarchically on the "
      "grid and via the ring inside a cluster";
  spec.expected_metrics = {"grid_s", "cluster_s"};
  spec.ranks = kCollRanks;
  spec.run = [](const ScenarioContext&) {
    mpi::CollRule multi = pure_rule(CollOp::kBcast, "hierarchical");
    multi.topo = mpi::TopoScope::kMultiSite;
    mpi::CollRule single = pure_rule(CollOp::kBcast, "scatter-ring");
    single.topo = mpi::TopoScope::kSingleSite;
    const mpi::CollRules rules = {multi, single};
    // The pick is topology-dependent even though the table is identical.
    const mpi::CollTable table = profiles::experiment(profiles::mpich2())
                                     .selector(rules)
                                     .build()
                                     .profile.collectives;
    if (coll::Selector::pick(*table, CollOp::kBcast, 256e3, kCollRanks, 2)
                .algo != "hierarchical" ||
        coll::Selector::pick(*table, CollOp::kBcast, 256e3, kCollRanks, 1)
                .algo != "scatter-ring")
      throw std::runtime_error("topology-scoped rules picked wrong entries");
    const auto body = [](Rank& r) -> Task<void> {
      co_await coll::bcast(r, 0, 256e3);
    };
    const double grid_s =
        run_timed(topo::GridSpec::rennes_nancy(8), kCollRanks,
                  profiles::experiment(profiles::mpich2()).selector(rules),
                  body);
    const double cluster_s =
        run_timed(topo::GridSpec::single_cluster(16), kCollRanks,
                  profiles::experiment(profiles::mpich2()).selector(rules),
                  body);
    if (grid_s <= 0 || cluster_s <= 0)
      throw std::runtime_error("selector-ruled broadcast did nothing");
    ScenarioResult res;
    res.add("grid_s", grid_s, "s");
    res.add("cluster_s", cluster_s, "s");
    res.note = "multi-site -> hierarchical (" +
               harness::format_double(grid_s * 1e3, 1) +
               " ms), single-site -> scatter-ring (" +
               harness::format_double(cluster_s * 1e3, 1) + " ms)";
    return res;
  };
  reg.add(std::move(spec));
}

}  // namespace

void register_coll_catalog(ScenarioRegistry& reg) {
  for (const auto& impl : profiles::all_implementations())
    register_verify(reg, impl);
  register_misrule(reg);
  register_equiv_bcast(reg);
  register_equiv_allreduce(reg);
  register_equiv_alltoall(reg);
  register_equiv_barrier(reg);
  register_decision_table(reg);
  register_selector_rules(reg);

  reg.set_renderer("coll", [](const auto& specs, const auto& results) {
    std::string out =
        "Collective selector verification (see `gridsim coll`):\n";
    for (std::size_t i = 0; i < specs.size(); ++i)
      out += "  " + variant_of(specs[i]->name) + ": " + results[i]->note +
             "\n";
    return out;
  });
}

}  // namespace gridsim::scenarios::detail
