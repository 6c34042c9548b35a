// Tests for the full nine-site Grid'5000 topology (paper Fig 1) and the
// ring alltoall algorithm.
#include <gtest/gtest.h>

#include <functional>

#include "collectives/collectives.hpp"
#include "mpi/mpi.hpp"
#include "simcore/simulation.hpp"
#include "topology/grid5000.hpp"

namespace gridsim {
namespace {

using namespace gridsim::literals;

TEST(Grid5000Full, NineSites) {
  Simulation sim;
  topo::Grid grid(sim, topo::GridSpec::grid5000_full(2));
  EXPECT_EQ(grid.site_count(), 9);
  EXPECT_EQ(grid.total_nodes(), 18);
}

TEST(Grid5000Full, PublishedRttsHonoured) {
  Simulation sim;
  const auto spec = topo::GridSpec::grid5000_full(1);
  topo::Grid grid(sim, spec);
  auto site_index = [&spec](const std::string& name) {
    for (size_t i = 0; i < spec.sites.size(); ++i)
      if (spec.sites[i].name == name) return static_cast<int>(i);
    throw std::out_of_range(name);
  };
  const auto rtt_ms = [&](const std::string& a, const std::string& b) {
    return to_milliseconds(grid.rtt(grid.node(site_index(a), 0),
                                    grid.node(site_index(b), 0)));
  };
  EXPECT_NEAR(rtt_ms("rennes", "nancy"), 11.6, 0.01);    // Fig 2
  EXPECT_NEAR(rtt_ms("rennes", "sophia"), 19.2, 0.01);   // Section 3.2
  EXPECT_NEAR(rtt_ms("toulouse", "lille"), 18.2, 0.01);  // Section 3.2
}

TEST(Grid5000Full, AllPairsRoutedAndSymmetricRtt) {
  Simulation sim;
  topo::Grid grid(sim, topo::GridSpec::grid5000_full(1));
  for (int a = 0; a < grid.total_nodes(); ++a) {
    for (int b = 0; b < grid.total_nodes(); ++b) {
      ASSERT_TRUE(grid.network().has_route(a, b));
      EXPECT_EQ(grid.network().path_latency(a, b),
                grid.network().path_latency(b, a));
    }
  }
}

TEST(Grid5000Full, TenGigSitesHaveFasterUplinks) {
  const auto spec = topo::GridSpec::grid5000_full(1);
  double rennes_uplink = 0, sophia_uplink = 0;
  for (const auto& s : spec.sites) {
    if (s.name == "rennes") rennes_uplink = s.uplink_bps;
    if (s.name == "sophia") sophia_uplink = s.uplink_bps;
  }
  EXPECT_GT(rennes_uplink, sophia_uplink);
}

// --- ring alltoall --------------------------------------------------------

Task<void> alltoall_body(mpi::Rank& r, SimTime* out) {
  // Several rounds so TCP channels are warm and the algorithmic cost
  // dominates (a single cold round actually favours the ring: it reuses
  // one neighbour connection instead of opening p-1).
  for (int i = 0; i < 10; ++i) co_await coll::alltoall(r, 64e3);
  *out = r.sim().now();
}

SimTime run_alltoall(const char* algo, const topo::GridSpec& spec,
                     int nranks, mpi::TrafficStats* stats = nullptr) {
  Simulation sim;
  topo::Grid grid(sim, spec);
  mpi::ImplProfile p;
  p.eager_threshold = 1e12;
  p.collectives = mpi::prepend(
      {mpi::CollRule{.op = mpi::CollOp::kAlltoall, .algo = algo}},
      *p.collectives);
  mpi::Job job(grid, mpi::block_placement(grid, nranks), p,
               tcp::KernelTunables::grid_tuned());
  std::vector<SimTime> finish(static_cast<size_t>(nranks), 0);
  for (int r = 0; r < nranks; ++r)
    sim.spawn(alltoall_body(job.rank(r), &finish[static_cast<size_t>(r)]));
  sim.run();
  if (stats) *stats = job.traffic();
  return *std::max_element(finish.begin(), finish.end());
}

TEST(RingAlltoall, CompletesAndMovesMoreBytesThanPairwise) {
  mpi::TrafficStats ring_stats, pair_stats;
  const auto spec = topo::GridSpec::single_cluster(8);
  run_alltoall("ring", spec, 8, &ring_stats);
  run_alltoall("pairwise", spec, 8, &pair_stats);
  // Relaying multiplies the carried volume (blocks travel d hops).
  EXPECT_GT(ring_stats.collective_bytes, pair_stats.collective_bytes * 1.5);
}

TEST(RingAlltoall, PairwiseWinsOnTheClusterRingWinsOnTheGrid) {
  // On a cluster, relaying is pure overhead: pairwise wins. On the grid
  // with block placement the ring touches the WAN on only two boundary
  // edges and pipelines through them, while pairwise synchronises every
  // rank through four latency-bound WAN waves: the ring wins despite
  // carrying more bytes. (This is exactly why grid-aware alltoall
  // algorithms order ranks by site.)
  const auto cluster = topo::GridSpec::single_cluster(8);
  EXPECT_LT(run_alltoall("pairwise", cluster, 8),
            run_alltoall("ring", cluster, 8));
  const auto grid = topo::GridSpec::rennes_nancy(4);
  EXPECT_LT(run_alltoall("ring", grid, 8),
            run_alltoall("pairwise", grid, 8));
}

}  // namespace
}  // namespace gridsim
