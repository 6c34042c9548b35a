// Lint fixtures for the campaign's race verdict (simlint/lint.hpp,
// docs/race-detection.md): a deliberately racy wildcard workload and its
// race-free twin. The pair pins the analyzer's verdict boundary from both
// sides (tests/lint_test.cpp):
//
//  * lint/wildcard-race — ranks 1 and 2 send concurrently into rank 0's
//    two kAnySource receives. Neither send happens-before the other, so
//    rule R1 fires and names both send sites. Registered with
//    races_expected: the race is the fixture's purpose, and its metrics
//    are commutative, so its verdict is "expected-races" and it passes.
//
//  * lint/scripted-order — the same traffic, serialized through a token:
//    rank 1 sends to rank 0, then passes a token to rank 2, which sends to
//    rank 0 only after receiving it. The candidate sends are HB-ordered
//    (send#0@1 -> token -> send#1@2), so the analyzer proves zero races —
//    and the model-checker's HB persistent sets collapse the exploration
//    of this workload to a single execution (the second matching order
//    would deliver a causally-later message first).
#include <functional>
#include <string>

#include "mpi/mpi.hpp"
#include "scenarios/catalog_internal.hpp"
#include "topology/grid5000.hpp"

namespace gridsim::scenarios::detail {

namespace {

using harness::ScenarioContext;
using harness::ScenarioRegistry;
using harness::ScenarioResult;
using harness::ScenarioSpec;

constexpr int kDataTag = 1;
constexpr int kTokenTag = 7;
constexpr int kLintRanks = 3;

/// Runs `body` on a 3-rank job spanning both sites (rank 0 + rank 1 in
/// Rennes, rank 2 in Nancy — so the two candidate sends take LAN and WAN
/// paths of genuinely different latency).
ScenarioResult run_lint_job(const std::function<Task<void>(mpi::Rank&)>& body,
                            int* recvs, double* sum_bytes) {
  Simulation sim;
  topo::Grid grid(sim, topo::GridSpec::rennes_nancy(2));
  mpi::Job job(grid, mpi::block_placement(grid, kLintRanks),
               profiles::mpich2(), tcp::KernelTunables::grid_tuned());
  job.launch(body);
  sim.run();
  ScenarioResult res;
  res.add("recvs", *recvs);
  res.add("sum_bytes", *sum_bytes, "B");
  return res;
}

void register_wildcard_race(ScenarioRegistry& reg) {
  ScenarioSpec spec;
  spec.group = "lint";
  spec.name = "lint/wildcard-race";
  spec.description =
      "2 concurrent senders into 2 wildcard receives: rule R1 must fire "
      "naming both send sites";
  spec.expected_metrics = {"recvs", "sum_bytes"};
  spec.ranks = kLintRanks;
  spec.races_expected = true;
  spec.run = [](const ScenarioContext&) {
    int recvs = 0;
    double sum_bytes = 0;
    auto res = run_lint_job(
        [&](mpi::Rank& r) -> Task<void> {
          if (r.rank() == 0) {
            for (int i = 0; i < kLintRanks - 1; ++i) {
              const mpi::RecvInfo info =
                  co_await r.recv(mpi::kAnySource, kDataTag);
              ++recvs;
              sum_bytes += info.bytes;
            }
          } else {
            co_await r.send(0, 500.0 * r.rank(), kDataTag);
          }
        },
        &recvs, &sum_bytes);
    res.note = "R1 expected: rank 1 send#0 races rank 2 send#0";
    return res;
  };
  reg.add(std::move(spec));
}

void register_scripted_order(ScenarioRegistry& reg) {
  ScenarioSpec spec;
  spec.group = "lint";
  spec.name = "lint/scripted-order";
  spec.description =
      "race-free twin: the candidate sends are serialized through a token, "
      "zero findings";
  spec.expected_metrics = {"recvs", "sum_bytes"};
  spec.ranks = kLintRanks;
  spec.run = [](const ScenarioContext&) {
    int recvs = 0;
    double sum_bytes = 0;
    auto res = run_lint_job(
        [&](mpi::Rank& r) -> Task<void> {
          if (r.rank() == 0) {
            for (int i = 0; i < kLintRanks - 1; ++i) {
              const mpi::RecvInfo info =
                  co_await r.recv(mpi::kAnySource, kDataTag);
              ++recvs;
              sum_bytes += info.bytes;
            }
          } else if (r.rank() == 1) {
            co_await r.send(0, 500, kDataTag);
            co_await r.send(2, 64, kTokenTag);  // HB edge to rank 2's send
          } else {
            (void)co_await r.recv(1, kTokenTag);
            co_await r.send(0, 1000, kDataTag);
          }
        },
        &recvs, &sum_bytes);
    res.note = "token-serialized: the wildcard receives have one enabled "
               "candidate each";
    return res;
  };
  reg.add(std::move(spec));
}

}  // namespace

void register_lint_catalog(ScenarioRegistry& reg) {
  register_wildcard_race(reg);
  register_scripted_order(reg);

  reg.set_renderer("lint", [](const auto& specs, const auto& results) {
    std::string out =
        "Lint fixtures (lint_status and findings in CAMPAIGN.json):\n";
    for (std::size_t i = 0; i < specs.size(); ++i)
      out += "  " + variant_of(specs[i]->name) + ": " + results[i]->note +
             "\n";
    return out;
  });
}

}  // namespace gridsim::scenarios::detail
