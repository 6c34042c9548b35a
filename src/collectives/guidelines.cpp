#include "collectives/guidelines.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "collectives/collectives.hpp"
#include "collectives/selector.hpp"
#include "mpi/mpi.hpp"
#include "simcore/json.hpp"

namespace gridsim::coll {

namespace {

using mpi::CollOp;
using mpi::Rank;

/// Makespan of one SPMD body: max per-rank finish time (stale network
/// bookkeeping events can outlive the application, so Simulation::run()'s
/// return value is not the app's makespan).
double measure(const topo::GridSpec& spec, const mpi::ImplProfile& profile,
               const tcp::KernelTunables& kernel, int nranks, bool cyclic,
               const SimHooks& hooks,
               const std::function<Task<void>(Rank&)>& body) {
  Simulation sim;
  if (hooks.on_start) hooks.on_start(sim);
  topo::Grid grid(sim, spec);
  mpi::Job job(grid,
               cyclic ? mpi::cyclic_placement(grid, nranks)
                      : mpi::block_placement(grid, nranks),
               profile, kernel);
  std::vector<SimTime> finish(static_cast<size_t>(nranks), 0);
  job.launch([&body, &finish](Rank& r) -> Task<void> {
    co_await body(r);
    finish[static_cast<size_t>(r.rank())] = r.sim().now();
  });
  sim.run();
  if (hooks.on_finish) hooks.on_finish(sim);
  SimTime worst = 0;
  for (SimTime t : finish) worst = std::max(worst, t);
  return to_seconds(worst);
}

/// Times for one probe size, measured as independent simulations so a
/// composition's cost includes its own cold-start like the collective it
/// is compared against.
struct SizeTimes {
  double allreduce = 0;
  double bcast = 0;
  double reduce_scatter = 0;
  double reduce_then_bcast = 0;
  double scatter_then_allgather = 0;
  double reduce_then_scatter = 0;
};

SizeTimes measure_size(const topo::GridSpec& spec,
                       const mpi::ImplProfile& profile,
                       const tcp::KernelTunables& kernel,
                       const GuidelineOptions& opt, double bytes) {
  const int p = opt.nranks;
  const double per_rank = bytes / p;
  auto run = [&](std::function<Task<void>(Rank&)> body) {
    return measure(spec, profile, kernel, p, opt.cyclic, opt.hooks,
                   std::move(body));
  };
  SizeTimes t;
  t.allreduce = run(
      [bytes](Rank& r) -> Task<void> { co_await allreduce(r, bytes); });
  t.bcast =
      run([bytes](Rank& r) -> Task<void> { co_await bcast(r, 0, bytes); });
  t.reduce_scatter = run(
      [bytes](Rank& r) -> Task<void> { co_await reduce_scatter(r, bytes); });
  t.reduce_then_bcast = run([bytes](Rank& r) -> Task<void> {
    co_await reduce(r, 0, bytes);
    co_await bcast(r, 0, bytes);
  });
  t.scatter_then_allgather = run([per_rank](Rank& r) -> Task<void> {
    co_await scatter(r, 0, per_rank);
    co_await allgather(r, per_rank);
  });
  t.reduce_then_scatter = run([bytes, per_rank](Rank& r) -> Task<void> {
    co_await reduce(r, 0, bytes);
    co_await scatter(r, 0, per_rank);
  });
  return t;
}

/// The algorithm the selector would choose, for the cell's detail string.
/// `nsites` comes from the deployment spec (block placement fills sites in
/// order, so 16 ranks over these catalog specs reach every site).
std::string chosen(const mpi::CollRules& table, CollOp op, double bytes,
                   int nranks, int nsites) {
  return std::string(to_string(op)) + "=" +
         Selector::pick(table, op, bytes, nranks, nsites).algo;
}

}  // namespace

GuidelineReport verify_guidelines(const topo::GridSpec& spec,
                                  const std::string& topology_label,
                                  const mpi::ImplProfile& profile,
                                  const tcp::KernelTunables& kernel,
                                  const GuidelineOptions& opt) {
  if (opt.sizes.empty())
    throw std::invalid_argument("verify_guidelines: no probe sizes");
  const int nsites = static_cast<int>(spec.sites.size());
  GuidelineReport report;

  auto add = [&](const char* guideline, double bytes, double lhs, double rhs,
                 double tol, std::string detail) {
    GuidelineCell c;
    c.guideline = guideline;
    c.profile = profile.name;
    c.topology = topology_label;
    c.bytes = bytes;
    c.lhs_s = lhs;
    c.rhs_s = rhs;
    c.ratio = rhs > 0 ? lhs / rhs : 0;
    c.tolerance = tol;
    c.violated = lhs > tol * rhs;
    c.detail = std::move(detail);
    report.cells.push_back(std::move(c));
  };

  const mpi::CollRules& table = *profile.collectives;
  std::vector<SizeTimes> times;
  times.reserve(opt.sizes.size());
  for (double bytes : opt.sizes)
    times.push_back(measure_size(spec, profile, kernel, opt, bytes));

  const double ctol = opt.composition_tolerance;
  for (size_t i = 0; i < opt.sizes.size(); ++i) {
    const double bytes = opt.sizes[i];
    const SizeTimes& t = times[i];
    add("allreduce<=reduce+bcast", bytes, t.allreduce, t.reduce_then_bcast,
        ctol,
        chosen(table, CollOp::kAllreduce, bytes, opt.nranks, nsites) + ", " +
            chosen(table, CollOp::kBcast, bytes, opt.nranks, nsites));
    add("bcast<=scatter+allgather", bytes, t.bcast, t.scatter_then_allgather,
        ctol, chosen(table, CollOp::kBcast, bytes, opt.nranks, nsites));
    add("reduce_scatter<=reduce+scatter", bytes, t.reduce_scatter,
        t.reduce_then_scatter, ctol, "reduce_scatter=recursive-halving");
  }

  const double mtol = opt.monotone_tolerance;
  for (size_t i = 0; i + 1 < opt.sizes.size(); ++i) {
    const double small = opt.sizes[i];
    const double large = opt.sizes[i + 1];
    add("monotone-bcast", small, times[i].bcast, times[i + 1].bcast, mtol,
        chosen(table, CollOp::kBcast, small, opt.nranks, nsites) + " vs " +
            chosen(table, CollOp::kBcast, large, opt.nranks, nsites));
    add("monotone-allreduce", small, times[i].allreduce,
        times[i + 1].allreduce, mtol,
        chosen(table, CollOp::kAllreduce, small, opt.nranks, nsites) +
            " vs " +
            chosen(table, CollOp::kAllreduce, large, opt.nranks, nsites));
  }
  return report;
}

std::vector<GuidelineDeployment> guideline_deployments() {
  return {{"cluster", topo::GridSpec::single_cluster(16), false},
          {"grid", topo::GridSpec::rennes_nancy(8), false},
          {"grid-cyclic", topo::GridSpec::rennes_nancy(8), true}};
}

mpi::CollRules misruled_selector() {
  mpi::CollRule small;
  small.op = mpi::CollOp::kBcast;
  small.algo = "scatter-ring";
  small.max_bytes = kBcastSmallCutoff;
  mpi::CollRule large;
  large.op = mpi::CollOp::kBcast;
  large.algo = "binomial";
  return {small, large};
}

bool write_coll_json(const std::string& path, const GuidelineReport& report) {
  const std::filesystem::path dir =
      std::filesystem::path(path).parent_path();
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) return false;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\n  \"schema\": \"gridsim-coll/1\",\n");
  std::fprintf(f, "  \"violations\": %d,\n", report.violations());
  std::fprintf(f, "  \"cells\": [\n");
  for (size_t i = 0; i < report.cells.size(); ++i) {
    const GuidelineCell& c = report.cells[i];
    std::fprintf(
        f,
        "    {\"guideline\": \"%s\", \"profile\": \"%s\", "
        "\"topology\": \"%s\", \"bytes\": %.0f, \"lhs_s\": %.9f, "
        "\"rhs_s\": %.9f, \"ratio\": %.4f, \"tolerance\": %.2f, "
        "\"violated\": %s, \"detail\": \"%s\"}%s\n",
        json_escape(c.guideline).c_str(), json_escape(c.profile).c_str(),
        json_escape(c.topology).c_str(), c.bytes, c.lhs_s, c.rhs_s, c.ratio,
        c.tolerance, c.violated ? "true" : "false",
        json_escape(c.detail).c_str(),
        i + 1 < report.cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  return std::fclose(f) == 0;
}

}  // namespace gridsim::coll
