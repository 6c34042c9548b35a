// Tests for the collective algorithms: termination, traffic volumes, and
// the WAN-awareness properties the paper relies on. Algorithms are selected
// by registry name through a rule put ahead of the default decision table
// (coll_rules.hpp), the same path `ExperimentBuilder::selector(...)` and
// the shipped decision tables use.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "collectives/collectives.hpp"
#include "mpi/mpi.hpp"
#include "simcore/simulation.hpp"
#include "topology/grid5000.hpp"

namespace gridsim::coll {
namespace {

using namespace gridsim::literals;
using mpi::ImplProfile;
using mpi::Rank;

/// A test profile whose decision table is the default one with `ahead`
/// in front of it.
ImplProfile profile_with(const mpi::CollRules& ahead = {}) {
  ImplProfile p;
  p.name = "test";
  p.send_overhead = microseconds(2);
  p.recv_overhead = microseconds(2);
  p.eager_threshold = 1e9;  // keep protocol out of the picture
  p.collectives = mpi::prepend(ahead, *p.collectives);
  return p;
}

/// A rule that unconditionally picks the named algorithm for `op`.
mpi::CollRules force(mpi::CollOp op, std::string algo) {
  return {mpi::CollRule{.op = op, .algo = std::move(algo)}};
}

Task<void> timed_body(std::function<Task<void>(Rank&)> body, Rank* r,
                      SimTime* finish) {
  co_await body(*r);
  *finish = r->sim().now();
}

/// Runs `body` as an SPMD program over `nranks` on the given spec; returns
/// the completion time of the slowest rank (stale network bookkeeping
/// events may outlive the application, so sim.run()'s return value is not
/// the app's makespan).
SimTime run_spmd(const topo::GridSpec& spec, int nranks, ImplProfile profile,
                 std::function<Task<void>(Rank&)> body,
                 mpi::TrafficStats* stats_out = nullptr) {
  Simulation sim;
  topo::Grid grid(sim, spec);
  mpi::Job job(grid, mpi::block_placement(grid, nranks), std::move(profile),
               tcp::KernelTunables::grid_tuned());
  std::vector<SimTime> finish(static_cast<size_t>(nranks), 0);
  job.launch([&body, &finish, &job](Rank& r) {
    return timed_body(body, &r, &finish[static_cast<size_t>(r.rank())]);
  });
  sim.run();
  if (stats_out) *stats_out = job.traffic();
  return *std::max_element(finish.begin(), finish.end());
}

Task<void> staggered_barrier_body(Rank& r, std::vector<SimTime>* after) {
  // Stagger arrival: rank i waits i ms first.
  co_await r.sim().delay(milliseconds(r.rank()));
  co_await barrier(r);
  (*after)[static_cast<size_t>(r.rank())] = r.sim().now();
}

TEST(Collectives, BarrierSynchronisesAllRanks) {
  std::vector<SimTime> after(8, -1);
  run_spmd(topo::GridSpec::rennes_nancy(4), 8, profile_with(),
           [&after](Rank& r) { return staggered_barrier_body(r, &after); });
  // Nobody leaves before the last arrival (7 ms).
  for (auto t : after) EXPECT_GE(t, 7_ms);
}

TEST(Collectives, BarrierSingleRankIsNoop) {
  const SimTime end = run_spmd(
      topo::GridSpec::single_cluster(1), 1, profile_with(),
      [](Rank& r) -> Task<void> { co_await barrier(r); });
  EXPECT_EQ(end, 0);
}

Task<void> bcast_bytes_body(Rank& r, double bytes) {
  co_await bcast(r, 0, bytes);
}

Task<void> repeated_bcast_body(Rank& r, double bytes, int iters) {
  for (int i = 0; i < iters; ++i) co_await bcast(r, 0, bytes);
}

Task<void> repeated_allreduce_body(Rank& r, double bytes, int iters) {
  for (int i = 0; i < iters; ++i) co_await allreduce(r, bytes);
}

class BcastAlgos : public ::testing::TestWithParam<const char*> {};

TEST_P(BcastAlgos, CompletesAndMovesEnoughBytes) {
  mpi::TrafficStats stats;
  const double bytes = 256e3;
  run_spmd(topo::GridSpec::rennes_nancy(8), 16,
           profile_with(force(mpi::CollOp::kBcast, GetParam())),
           [bytes](Rank& r) { return bcast_bytes_body(r, bytes); }, &stats);
  // Every rank except the root must receive the payload at least once:
  // total collective traffic >= (p-1) * bytes.
  EXPECT_GE(stats.collective_bytes, 15 * bytes * 0.99);
  EXPECT_EQ(stats.p2p_messages, 0u);
}

INSTANTIATE_TEST_SUITE_P(All, BcastAlgos,
                         ::testing::Values("binomial", "scatter-ring",
                                           "hierarchical"));

TEST(Collectives, BcastNonRootRootWorks) {
  const SimTime end = run_spmd(
      topo::GridSpec::rennes_nancy(4), 8,
      profile_with(force(mpi::CollOp::kBcast, "binomial")),
      [](Rank& r) -> Task<void> { co_await bcast(r, 5, 64e3); });
  EXPECT_GT(end, 0);
}

TEST(Collectives, HierarchicalBcastBeatsRingOnTheGrid) {
  // The paper's FT mechanism: a rank-ordered ring allgather pays the WAN
  // latency on ~every step; the hierarchical algorithm crosses the WAN once
  // with parallel streams.
  // 20 back-to-back 128 kB broadcasts (FT does hundreds): TCP channels are
  // warm after the first few, isolating the algorithmic difference.
  auto time_bcast = [](const char* algo) {
    return run_spmd(topo::GridSpec::rennes_nancy(8), 16,
                    profile_with(force(mpi::CollOp::kBcast, algo)),
                    [](Rank& r) { return repeated_bcast_body(r, 128e3, 20); });
  };
  const SimTime ring = time_bcast("scatter-ring");
  const SimTime hier = time_bcast("hierarchical");
  const SimTime binom = time_bcast("binomial");
  EXPECT_LT(hier, ring / 3);   // order-of-magnitude win over the WAN ring
  EXPECT_LT(hier, binom);      // parallel WAN streams also beat the tree
}

TEST(Collectives, HierarchicalBcastOnSingleClusterStillWorks) {
  const SimTime end = run_spmd(
      topo::GridSpec::single_cluster(16), 16,
      profile_with(force(mpi::CollOp::kBcast, "hierarchical")),
      [](Rank& r) -> Task<void> { co_await bcast(r, 0, 1e6); });
  EXPECT_GT(end, 0);
  EXPECT_LT(end, 1_s);
}

class AllreduceAlgos : public ::testing::TestWithParam<const char*> {};

TEST_P(AllreduceAlgos, CompletesOnPow2AndNonPow2) {
  for (int nranks : {4, 6, 16}) {
    const SimTime end = run_spmd(
        topo::GridSpec::rennes_nancy(8), nranks,
        profile_with(force(mpi::CollOp::kAllreduce, GetParam())),
        [](Rank& r) -> Task<void> { co_await allreduce(r, 64e3); });
    EXPECT_GT(end, 0) << "nranks=" << nranks;
  }
}

INSTANTIATE_TEST_SUITE_P(All, AllreduceAlgos,
                         ::testing::Values("recursive-doubling",
                                           "rabenseifner", "hierarchical"));

TEST(Collectives, HierarchicalAllreduceReducesWanTraffic) {
  // The hierarchical algorithm's benefit with two sites is WAN traffic: only
  // the two site leaders exchange payloads across the WAN (2 messages),
  // versus 16 full-size pair exchanges in recursive doubling.
  auto wan_bytes = [](const char* algo) {
    Simulation sim;
    topo::Grid grid(sim, topo::GridSpec::rennes_nancy(8));
    mpi::ImplProfile p = profile_with(force(mpi::CollOp::kAllreduce, algo));
    mpi::Job job(grid, mpi::block_placement(grid, 16), p,
                 tcp::KernelTunables::grid_tuned());
    job.launch(
        [](Rank& r) { return repeated_allreduce_body(r, 64e3, 5); });
    sim.run();
    const net::LinkId wan = grid.network().find_link("rennes-nancy");
    const net::LinkId rev = grid.network().find_link("rennes-nancy.rev");
    return grid.network().link(wan).bytes_carried +
           grid.network().link(rev).bytes_carried;
  };
  const double rd = wan_bytes("recursive-doubling");
  const double hier = wan_bytes("hierarchical");
  EXPECT_LT(hier, rd / 4);
  EXPECT_GT(hier, 0);
}

TEST(Collectives, ReduceGatherScatterAllgatherComplete) {
  const SimTime end = run_spmd(
      topo::GridSpec::rennes_nancy(4), 8, profile_with(),
      [](Rank& r) -> Task<void> {
        co_await reduce(r, 0, 32e3);
        co_await gather(r, 0, 8e3);
        co_await scatter(r, 0, 8e3);
        co_await allgather(r, 8e3);
      });
  EXPECT_GT(end, 0);
}

TEST(Collectives, GatherMovesAggregateVolume) {
  mpi::TrafficStats stats;
  run_spmd(topo::GridSpec::single_cluster(8), 8, profile_with(),
           [](Rank& r) -> Task<void> { co_await gather(r, 0, 1000); },
           &stats);
  // Binomial gather total traffic: each non-root block travels >= once.
  EXPECT_GE(stats.collective_bytes, 7 * 1000.0);
  // And no more than log2(p) hops per block.
  EXPECT_LE(stats.collective_bytes, 7 * 1000.0 * 3);
}

TEST(Collectives, AlltoallExchangesAllPairs) {
  mpi::TrafficStats stats;
  run_spmd(topo::GridSpec::single_cluster(8), 8, profile_with(),
           [](Rank& r) -> Task<void> { co_await alltoall(r, 500); }, &stats);
  // 8 ranks x 7 peers x 500 B (self excluded, zero-byte fillers allowed).
  EXPECT_NEAR(stats.collective_bytes, 8 * 7 * 500.0, 1.0);
}

TEST(Collectives, AlltoallvHandlesAsymmetricSizes) {
  const SimTime end = run_spmd(
      topo::GridSpec::rennes_nancy(2), 4, profile_with(),
      [](Rank& r) -> Task<void> {
        std::vector<double> sizes(4, 0.0);
        // Rank i sends i kB to every other rank.
        for (int d = 0; d < 4; ++d)
          if (d != r.rank()) sizes[static_cast<size_t>(d)] = r.rank() * 1e3;
        co_await alltoallv(r, sizes);
      });
  EXPECT_GT(end, 0);
}

Task<void> bad_alltoallv_body(Rank& r, bool* threw) {
  const std::vector<double> too_short(1, 1.0);
  try {
    co_await alltoallv(r, too_short);
  } catch (const std::invalid_argument&) {
    *threw = true;
  }
}

TEST(Collectives, AlltoallvValidatesSizes) {
  bool threw = false;
  run_spmd(topo::GridSpec::single_cluster(2), 2, profile_with(),
           [&threw](Rank& r) { return bad_alltoallv_body(r, &threw); });
  EXPECT_TRUE(threw);
}

/// Runs one `op` call and keeps the message of the std::invalid_argument
/// it throws on this rank.
Task<void> catching_body(Rank& r, mpi::CollOp op,
                         std::vector<std::string>* what) {
  try {
    switch (op) {
      case mpi::CollOp::kBcast:
        co_await bcast(r, 0, 64e3);
        break;
      case mpi::CollOp::kAllreduce:
        co_await allreduce(r, 64e3);
        break;
      case mpi::CollOp::kAlltoall:
        co_await alltoall(r, 1e3);
        break;
      case mpi::CollOp::kBarrier:
        co_await barrier(r);
        break;
    }
  } catch (const std::invalid_argument& e) {
    (*what)[static_cast<size_t>(r.rank())] = e.what();
  }
}

TEST(Collectives, UnknownAlgorithmNameThrows) {
  // The dispatch check: a picked rule whose name no registry entry has
  // throws at the call, on every rank, before any message moves.
  for (const auto op : {mpi::CollOp::kBcast, mpi::CollOp::kAllreduce,
                        mpi::CollOp::kAlltoall, mpi::CollOp::kBarrier}) {
    std::vector<std::string> what(4);
    mpi::TrafficStats stats;
    run_spmd(topo::GridSpec::rennes_nancy(2), 4,
             profile_with(force(op, "no-such-algo")),
             [op, &what](Rank& r) { return catching_body(r, op, &what); },
             &stats);
    for (const std::string& w : what) {
      EXPECT_NE(w.find(mpi::to_string(op) + ":"), std::string::npos) << w;
      EXPECT_NE(w.find("'no-such-algo'"), std::string::npos) << w;
    }
    EXPECT_EQ(stats.collective_bytes, 0) << mpi::to_string(op);
  }
}

TEST(Collectives, CollectivesComposeInSequence) {
  // A mini NPB-like iteration: allreduce + bcast + barrier, several times.
  const SimTime end = run_spmd(
      topo::GridSpec::rennes_nancy(8), 16, profile_with(),
      [](Rank& r) -> Task<void> {
        for (int i = 0; i < 5; ++i) {
          co_await allreduce(r, 8);
          co_await bcast(r, 0, 4e3);
          co_await barrier(r);
        }
      });
  EXPECT_GT(end, 5 * 11600_us);  // each iteration crosses the WAN
}

}  // namespace
}  // namespace gridsim::coll
