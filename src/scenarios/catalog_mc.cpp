// Model-checking targets for `gridsim mc` (simmc/mc.hpp): small-rank
// workloads whose wildcard receives genuinely race, registered like any
// other scenario so the campaign pins their default-arbiter digests while
// the checker explores their alternative matching orders.
//
// Contract for this group: every metric is interleaving-invariant — counts,
// byte totals and commutative (order-independent) reductions only, never
// completion times. That is what makes "result-digest stability across all
// explored interleavings" a meaningful assertion rather than a tautology.
//
// mc/deadlock-fixture is special: it is *clean under arrival order* (the
// LAN sender's message always arrives before the WAN sender's) but carries
// a real ordering bug — if the wildcard receive matches the WAN sender, the
// following recv(src=2) starves. The checker must find it, minimize it to
// the one forced choice, and emit a replayable witness; see
// tests/simmc_test.cpp and docs/model-checking.md.
#include <cctype>
#include <functional>
#include <string>
#include <vector>

#include "collectives/collectives.hpp"
#include "harness/npb_campaign.hpp"
#include "mpi/mpi.hpp"
#include "scenarios/catalog_internal.hpp"
#include "topology/grid5000.hpp"

namespace gridsim::scenarios::detail {

namespace {

using harness::ScenarioContext;
using harness::ScenarioRegistry;
using harness::ScenarioResult;
using harness::ScenarioSpec;
using profiles::TuningLevel;

constexpr int kDataTag = 1;
constexpr int kAckTag = 2;
constexpr int kRanks = 4;  // 2 sites x 2 hosts: racing LAN + WAN senders

/// The two implementations whose matching stacks the checker exercises:
/// the reference (MPICH2) and the grid-aware one (GridMPI) — their eager
/// thresholds and collective algorithms take different engine paths.
std::vector<mpi::ImplProfile> mc_profiles() {
  return {profiles::mpich2(), profiles::gridmpi()};
}

/// Runs `body` on every rank of a 4-rank job spanning both sites and
/// returns the job's traffic stats as interleaving-invariant metrics.
ScenarioResult run_traffic_job(
    const profiles::ExperimentConfig& cfg, int nranks,
    const std::function<Task<void>(mpi::Rank&)>& body) {
  Simulation sim;
  topo::Grid grid(sim, topo::GridSpec::rennes_nancy(2));
  mpi::Job job(grid, mpi::block_placement(grid, nranks), cfg.profile,
               cfg.kernel);
  job.launch(body);
  sim.run();
  const mpi::TrafficStats& t = job.traffic();
  ScenarioResult res;
  res.add("coll_msgs", static_cast<double>(t.collective_messages));
  res.add("coll_mb", t.collective_bytes / 1e6, "MB");
  res.add("ctrl_msgs", static_cast<double>(t.control_messages));
  return res;
}

// ---------------------------------------------------------------------------
// Wildcard ping-pong: three senders race into one receiver's kAnySource
// loop. 3! = 6 legal matching orders; the commutative checksum must not
// care which one the engine picks.
// ---------------------------------------------------------------------------

void register_wildcard_pingpong(ScenarioRegistry& reg) {
  for (const auto& impl : mc_profiles()) {
    ScenarioSpec spec;
    spec.group = "mc";
    spec.name = "mc/pingpong-wild-" + impl.name;
    spec.description =
        "3 racing senders into one wildcard receive loop, acked -- " +
        impl.name;
    spec.expected_metrics = {"recvs", "sum_bytes", "weighted_sum", "acks"};
    spec.ranks = kRanks;
    spec.races_expected = true;  // the racing senders are the point
    spec.run = [impl](const ScenarioContext&) {
      const profiles::ExperimentConfig cfg =
          profiles::experiment(impl).tuning(TuningLevel::kTcpTuned);
      Simulation sim;
      topo::Grid grid(sim, topo::GridSpec::rennes_nancy(2));
      mpi::Job job(grid, mpi::block_placement(grid, kRanks), cfg.profile,
                   cfg.kernel);
      int recvs = 0, acks = 0;
      double sum_bytes = 0, weighted_sum = 0;
      job.launch([&](mpi::Rank& r) -> Task<void> {
        if (r.rank() == 0) {
          for (int i = 0; i < kRanks - 1; ++i) {
            const mpi::RecvInfo info =
                co_await r.recv(mpi::kAnySource, kDataTag);
            ++recvs;
            sum_bytes += info.bytes;
            weighted_sum += info.source * info.bytes;
            co_await r.send(info.source, 64, kAckTag);
          }
        } else {
          co_await r.send(0, 1e3 * r.rank(), kDataTag);
          (void)co_await r.recv(0, kAckTag);
          ++acks;
        }
      });
      sim.run();
      ScenarioResult res;
      res.add("recvs", recvs);
      res.add("sum_bytes", sum_bytes, "B");
      res.add("weighted_sum", weighted_sum);
      res.add("acks", acks);
      res.note = std::to_string(recvs) + " wildcard matches, checksum " +
                 harness::format_double(weighted_sum, 0);
      return res;
    };
    reg.add(std::move(spec));
  }
}

// ---------------------------------------------------------------------------
// Collectives: the profile-selected Bcast/Allreduce algorithms over both
// sites. Traffic counts are a pure function of the algorithm, so they pin
// the collective's shape under any matching order.
// ---------------------------------------------------------------------------

void register_collectives(ScenarioRegistry& reg) {
  for (const auto& impl : mc_profiles()) {
    {
      ScenarioSpec spec;
      spec.group = "mc";
      spec.name = "mc/bcast-" + impl.name;
      spec.description =
          "64 kB broadcast over 2 sites, traffic-shape pinned -- " +
          impl.name;
      spec.expected_metrics = {"coll_msgs", "coll_mb", "ctrl_msgs"};
      spec.ranks = kRanks;
      spec.run = [impl](const ScenarioContext&) {
        auto res = run_traffic_job(
            profiles::experiment(impl).tuning(TuningLevel::kTcpTuned),
            kRanks, [](mpi::Rank& r) -> Task<void> {
              co_await coll::bcast(r, 0, 64e3);
            });
        res.note = harness::format_double(res.metric("coll_msgs"), 0) +
                   " collective messages, " +
                   harness::format_double(res.metric("coll_mb"), 2) + " MB";
        return res;
      };
      reg.add(std::move(spec));
    }
    {
      ScenarioSpec spec;
      spec.group = "mc";
      spec.name = "mc/allreduce-" + impl.name;
      spec.description =
          "256 kB allreduce over 2 sites, traffic-shape pinned -- " +
          impl.name;
      spec.expected_metrics = {"coll_msgs", "coll_mb", "ctrl_msgs"};
      spec.ranks = kRanks;
      spec.run = [impl](const ScenarioContext&) {
        auto res = run_traffic_job(
            profiles::experiment(impl).tuning(TuningLevel::kTcpTuned),
            kRanks, [](mpi::Rank& r) -> Task<void> {
              co_await coll::allreduce(r, 256e3);
            });
        res.note = harness::format_double(res.metric("coll_msgs"), 0) +
                   " collective messages, " +
                   harness::format_double(res.metric("coll_mb"), 2) + " MB";
        return res;
      };
      reg.add(std::move(spec));
    }
  }
}

// ---------------------------------------------------------------------------
// NPB skeletons: CG (point-to-point halo) and IS (alltoall-heavy) at class
// S on 4 ranks — the smallest real communication patterns in the repo.
// ---------------------------------------------------------------------------

void register_npb_skeletons(ScenarioRegistry& reg) {
  const npb::Kernel kernels[2] = {npb::Kernel::kCG, npb::Kernel::kIS};
  for (const npb::Kernel k : kernels) {
    for (const auto& impl : mc_profiles()) {
      ScenarioSpec spec;
      spec.group = "mc";
      spec.name = "mc/" + [&] {
        std::string n = npb::name(k);
        for (char& c : n) c = static_cast<char>(std::tolower(c));
        return n;
      }() + "-" + impl.name;
      spec.description = "NPB " + npb::name(k) +
                         " class S skeleton on 4 ranks, traffic pinned -- " +
                         impl.name;
      spec.expected_metrics = {"p2p_msgs", "p2p_mb", "coll_msgs", "coll_mb"};
      spec.ranks = kRanks;
      spec.run = [impl, k](const ScenarioContext&) {
        const auto r = harness::run_npb(
            topo::GridSpec::rennes_nancy(2), kRanks, k, npb::Class::kS,
            profiles::experiment(impl).tuning(TuningLevel::kTcpTuned));
        ScenarioResult res;
        res.add("p2p_msgs", static_cast<double>(r.traffic.p2p_messages));
        res.add("p2p_mb", r.traffic.p2p_bytes / 1e6, "MB");
        res.add("coll_msgs",
                static_cast<double>(r.traffic.collective_messages));
        res.add("coll_mb", r.traffic.collective_bytes / 1e6, "MB");
        res.note =
            harness::format_double(
                static_cast<double>(r.traffic.p2p_messages), 0) +
            " p2p + " +
            harness::format_double(
                static_cast<double>(r.traffic.collective_messages), 0) +
            " collective messages";
        return res;
      };
      reg.add(std::move(spec));
    }
  }
}

// ---------------------------------------------------------------------------
// Seeded deadlock: clean under arrival order, wedged when the wildcard
// matches the WAN sender first.
// ---------------------------------------------------------------------------

void register_deadlock_fixture(ScenarioRegistry& reg) {
  ScenarioSpec spec;
  spec.group = "mc";
  spec.name = "mc/deadlock-fixture";
  spec.description =
      "wildcard recv that starves a following recv(src=2) in one matching "
      "order (checker must produce a witness)";
  spec.expected_metrics = {"recvs", "sum_bytes"};
  spec.ranks = 3;
  spec.races_expected = true;  // the hidden ordering bug *is* an R1 race
  spec.run = [](const ScenarioContext&) {
    Simulation sim;
    topo::Grid grid(sim, topo::GridSpec::rennes_nancy(2));
    mpi::Job job(grid, mpi::block_placement(grid, 3),
                 profiles::mpich2(), tcp::KernelTunables::grid_tuned());
    int recvs = 0;
    double sum_bytes = 0;
    job.launch([&](mpi::Rank& r) -> Task<void> {
      if (r.rank() == 0) {
        // Arrival order matches rank 1 (LAN, arrives first) here, leaving
        // rank 2's message for the specific receive below. The *other*
        // matching order consumes rank 2's only message and starves it.
        const mpi::RecvInfo first =
            co_await r.recv(mpi::kAnySource, kDataTag);
        const mpi::RecvInfo second = co_await r.recv(2, kDataTag);
        recvs = 2;
        sum_bytes = first.bytes + second.bytes;
      } else {
        co_await r.send(0, r.rank() == 1 ? 111 : 222, kDataTag);
      }
    });
    sim.run();
    ScenarioResult res;
    res.add("recvs", recvs);
    res.add("sum_bytes", sum_bytes, "B");
    res.note = "clean under arrival order (" +
               harness::format_double(sum_bytes, 0) + " B received)";
    return res;
  };
  reg.add(std::move(spec));
}

}  // namespace

void register_mc_catalog(ScenarioRegistry& reg) {
  register_wildcard_pingpong(reg);
  register_collectives(reg);
  register_npb_skeletons(reg);
  register_deadlock_fixture(reg);

  reg.set_renderer("mc", [](const auto& specs, const auto& results) {
    std::vector<std::vector<std::string>> rows;
    for (std::size_t i = 0; i < specs.size(); ++i)
      rows.push_back({variant_of(specs[i]->name), results[i]->note});
    std::string out = harness::render_table(
        "Model-checking targets (arrival-order baseline run)",
        {"scenario", "outcome"}, rows);
    out +=
        "\nThese scenarios exist to be *explored*, not just run: `gridsim\n"
        "mc --scenario 'mc/*'` re-executes each one under every legal\n"
        "wildcard matching order and asserts the metrics above never\n"
        "change. mc/deadlock-fixture deliberately hides an ordering\n"
        "deadlock that arrival order never triggers.\n";
    return out;
  });
}

}  // namespace gridsim::scenarios::detail
