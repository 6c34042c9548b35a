// Additional collective tests: gatherv/scatterv/reduce_scatter, size
// sweeps across algorithms, multi-site hierarchical behaviour.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "collectives/collectives.hpp"
#include "mpi/mpi.hpp"
#include "simcore/simulation.hpp"
#include "topology/grid5000.hpp"

namespace gridsim::coll {
namespace {

using mpi::ImplProfile;
using mpi::Rank;

/// A suite whose selector unconditionally picks the named algorithm.
mpi::CollectiveSuite force(mpi::CollOp op, std::string algo) {
  mpi::CollectiveSuite suite;
  suite.selector = {mpi::CollRule{.op = op, .algo = std::move(algo)}};
  return suite;
}

Task<void> timed(std::function<Task<void>(Rank&)> body, Rank* r,
                 SimTime* finish) {
  co_await body(*r);
  *finish = r->sim().now();
}

SimTime run_group(const topo::GridSpec& spec, int nranks,
                  mpi::CollectiveSuite suite,
                  std::function<Task<void>(Rank&)> body,
                  mpi::TrafficStats* stats = nullptr) {
  Simulation sim;
  topo::Grid grid(sim, spec);
  ImplProfile p;
  p.eager_threshold = 1e12;
  p.collectives = suite;
  mpi::Job job(grid, mpi::block_placement(grid, nranks), p,
               tcp::KernelTunables::grid_tuned());
  std::vector<SimTime> finish(static_cast<size_t>(nranks), 0);
  for (int r = 0; r < nranks; ++r)
    sim.spawn(timed(body, &job.rank(r), &finish[static_cast<size_t>(r)]));
  sim.run();
  if (stats) *stats = job.traffic();
  return *std::max_element(finish.begin(), finish.end());
}

Task<void> gatherv_body(Rank& r) {
  std::vector<double> sizes(static_cast<size_t>(r.size()));
  for (int i = 0; i < r.size(); ++i)
    sizes[static_cast<size_t>(i)] = 1000.0 * (i + 1);
  co_await gatherv(r, 0, sizes);
}

TEST(CollectivesExtra, GathervMovesPerRankSizes) {
  mpi::TrafficStats stats;
  run_group(topo::GridSpec::single_cluster(4), 4, {}, gatherv_body, &stats);
  // Ranks 1..3 send 2000, 3000, 4000 bytes.
  EXPECT_DOUBLE_EQ(stats.collective_bytes, 9000);
  EXPECT_EQ(stats.collective_messages, 3u);
}

Task<void> scatterv_body(Rank& r) {
  std::vector<double> sizes(static_cast<size_t>(r.size()), 500.0);
  co_await scatterv(r, 1, sizes);
}

TEST(CollectivesExtra, ScattervFromNonZeroRoot) {
  mpi::TrafficStats stats;
  const SimTime end = run_group(topo::GridSpec::single_cluster(4), 4, {},
                                scatterv_body, &stats);
  EXPECT_GT(end, 0);
  EXPECT_DOUBLE_EQ(stats.collective_bytes, 1500);  // 3 x 500
}

Task<void> bad_gatherv_body(Rank& r, bool* threw) {
  const std::vector<double> too_short(1, 1.0);
  try {
    co_await gatherv(r, 0, too_short);
  } catch (const std::invalid_argument&) {
    *threw = true;
  }
}

TEST(CollectivesExtra, GathervValidatesSizes) {
  bool threw = false;
  run_group(topo::GridSpec::single_cluster(2), 2, {},
            [&threw](Rank& r) { return bad_gatherv_body(r, &threw); });
  EXPECT_TRUE(threw);
}

Task<void> reduce_scatter_body(Rank& r, double bytes) {
  co_await reduce_scatter(r, bytes);
}

class ReduceScatterSweep : public ::testing::TestWithParam<int> {};

TEST_P(ReduceScatterSweep, CompletesOnVariousRankCounts) {
  const int nranks = GetParam();
  const SimTime end =
      run_group(topo::GridSpec::rennes_nancy(8), nranks, {},
                [](Rank& r) { return reduce_scatter_body(r, 128e3); });
  EXPECT_GT(end, 0);
}

INSTANTIATE_TEST_SUITE_P(Counts, ReduceScatterSweep,
                         ::testing::Values(2, 4, 6, 8, 16));

TEST(CollectivesExtra, ReduceScatterCheaperThanAllreduce) {
  // Reduce-scatter is the first half of Rabenseifner's allreduce: it must
  // not be slower than the full allreduce.
  const auto suite = force(mpi::CollOp::kAllreduce, "rabenseifner");
  const SimTime rs =
      run_group(topo::GridSpec::rennes_nancy(8), 16, suite,
                [](Rank& r) { return reduce_scatter_body(r, 1e6); });
  const SimTime ar = run_group(topo::GridSpec::rennes_nancy(8), 16, suite,
                               [](Rank& r) -> Task<void> {
                                 co_await allreduce(r, 1e6);
                               });
  EXPECT_LE(rs, ar);
}

// --- cross-algorithm size sweep: every bcast algorithm must deliver the
// payload to every rank for every size, on a 3-site grid. -----------------

struct SweepCase {
  const char* algo;  ///< registry name (see collectives/registry.hpp)
  double bytes;
};

// Names the case by value: gtest's default printer dumps the raw bytes,
// pointer included, so the discovered test names would change every run.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << c.algo << '-' << static_cast<long long>(c.bytes) << 'B';
}

class BcastSizeSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(BcastSizeSweep, TrafficLowerBoundHolds) {
  const SweepCase c = GetParam();
  mpi::TrafficStats stats;
  auto spec = topo::GridSpec::ray2mesh_quad(4);  // 4 sites x 4 nodes
  run_group(spec, 16, force(mpi::CollOp::kBcast, c.algo),
            [&c](Rank& r) -> Task<void> { co_await bcast(r, 0, c.bytes); },
            &stats);
  // Information-theoretic lower bound: 15 ranks must each receive b bytes.
  EXPECT_GE(stats.collective_bytes, 15 * c.bytes * 0.99)
      << "algo=" << c.algo << " bytes=" << c.bytes;
  // And no algorithm should move more than ~3x the optimum.
  EXPECT_LE(stats.collective_bytes, 15 * c.bytes * 3.2);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgos, BcastSizeSweep,
    ::testing::Values(SweepCase{"binomial", 1e3}, SweepCase{"binomial", 1e6},
                      SweepCase{"scatter-ring", 64e3},
                      SweepCase{"scatter-ring", 1e6},
                      SweepCase{"hierarchical", 64e3},
                      SweepCase{"hierarchical", 1e6},
                      SweepCase{"pipeline", 64e3},
                      SweepCase{"pipeline", 1e6}));

TEST(CollectivesExtra, HierarchicalHandlesFourSites) {
  mpi::CollectiveSuite suite;
  suite.selector = {
      mpi::CollRule{.op = mpi::CollOp::kBcast, .algo = "hierarchical"},
      mpi::CollRule{.op = mpi::CollOp::kAllreduce, .algo = "hierarchical"}};
  const SimTime end = run_group(
      topo::GridSpec::ray2mesh_quad(4), 16, suite, [](Rank& r) -> Task<void> {
        co_await bcast(r, 3, 512e3);
        co_await allreduce(r, 64e3);
        co_await barrier(r);
      });
  EXPECT_GT(end, 0);
}

Task<void> barrier_only(Rank& r) { co_await barrier(r); }

TEST(CollectivesExtra, BothBarrierAlgorithmsSynchronise) {
  for (const char* algo : {"dissemination", "tree"}) {
    const SimTime end = run_group(topo::GridSpec::rennes_nancy(4), 8,
                                  force(mpi::CollOp::kBarrier, algo),
                                  [](Rank& r) { return barrier_only(r); });
    EXPECT_GT(end, 0) << algo;
    // A barrier costs at least one WAN crossing on a two-site job.
    EXPECT_GE(end, milliseconds(5)) << algo;
  }
}

TEST(CollectivesExtra, CollectiveTagsMonotonePerRank) {
  Simulation sim;
  topo::Grid grid(sim, topo::GridSpec::single_cluster(2));
  mpi::ImplProfile p;
  mpi::Job job(grid, mpi::block_placement(grid, 2), p,
               tcp::KernelTunables::grid_tuned());
  auto& r = job.rank(0);
  const int t1 = r.next_collective_tag();
  const int t2 = r.next_collective_tag();
  EXPECT_EQ(t2, t1 + 1);
  EXPECT_GE(t1, mpi::kCollectiveTagBase);
}

}  // namespace
}  // namespace gridsim::coll
