// Tests for MPI_Probe/Iprobe and the Bruck alltoall algorithm.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "collectives/collectives.hpp"
#include "mpi/mpi.hpp"
#include "profiles/profiles.hpp"
#include "simcore/simulation.hpp"
#include "topology/grid5000.hpp"

namespace gridsim::mpi {
namespace {

using namespace gridsim::literals;

struct Fixture {
  Simulation sim;
  topo::Grid grid;
  Job job;
  Fixture()
      : grid(sim, topo::GridSpec::rennes_nancy(2)),
        job(grid, block_placement(grid, 4), profiles::mpich2(),
            tcp::KernelTunables::grid_tuned()) {}
};

Task<void> sender_two(Rank& r) {
  co_await r.send(1, 1000, 5);
  co_await r.send(1, 2000, 6);
}

Task<void> probing_receiver(Rank& r, std::vector<RecvInfo>* seen,
                            std::vector<double>* received) {
  // Probe for tag 6 specifically, then consume both in tag order.
  seen->push_back(co_await r.probe(0, 6));
  received->push_back((co_await r.recv(0, 6)).bytes);
  received->push_back((co_await r.recv(0, 5)).bytes);
}

TEST(Probe, ProbeSeesWithoutConsuming) {
  Fixture f;
  std::vector<RecvInfo> seen;
  std::vector<double> received;
  f.sim.spawn(sender_two(f.job.rank(0)));
  f.sim.spawn(probing_receiver(f.job.rank(1), &seen, &received));
  f.sim.run();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].tag, 6);
  EXPECT_DOUBLE_EQ(seen[0].bytes, 2000);
  // Both messages still receivable after the probe.
  EXPECT_EQ(received, (std::vector<double>{2000, 1000}));
}

Task<void> iprobe_receiver(Rank& r, bool* before, bool* after) {
  *before = r.iprobe(0, 9);
  (void)co_await r.probe(0, 9);  // wait until it lands
  RecvInfo info;
  *after = r.iprobe(0, 9, &info) && info.bytes == 512;
  (void)co_await r.recv(0, 9);
}

TEST(Probe, IprobeNonBlocking) {
  Fixture f;
  bool before = true, after = false;
  f.sim.spawn(iprobe_receiver(f.job.rank(1), &before, &after));
  f.sim.at(10_ms, [&f] {
    f.sim.spawn([](Rank& r) -> Task<void> { co_await r.send(1, 512, 9); }(
        f.job.rank(0)));
  });
  f.sim.run();
  EXPECT_FALSE(before);  // nothing there at t=0
  EXPECT_TRUE(after);
}

Task<void> any_source_prober(Rank& r, int* seen_src) {
  const RecvInfo info = co_await r.probe(kAnySource, kAnyTag);
  *seen_src = info.source;
  (void)co_await r.recv(info.source, info.tag);
}

TEST(Probe, WildcardProbe) {
  Fixture f;
  int seen_src = -1;
  f.sim.spawn(any_source_prober(f.job.rank(0), &seen_src));
  f.sim.spawn([](Rank& r) -> Task<void> { co_await r.send(0, 64, 3); }(
      f.job.rank(2)));
  f.sim.run();
  EXPECT_EQ(seen_src, 2);
}

// --- Bruck ---------------------------------------------------------------

Task<void> timed_alltoall(Rank& r, int iters, double bytes, SimTime* out) {
  for (int i = 0; i < iters; ++i) co_await coll::alltoall(r, bytes);
  *out = r.sim().now();
}

SimTime run_alltoall(const char* algo, double bytes,
                     TrafficStats* stats = nullptr) {
  Simulation sim;
  topo::Grid grid(sim, topo::GridSpec::rennes_nancy(8));
  ImplProfile p;
  p.eager_threshold = 1e12;
  p.collectives = mpi::prepend(
      {CollRule{.op = CollOp::kAlltoall, .algo = algo}}, *p.collectives);
  Job job(grid, block_placement(grid, 16), p,
          tcp::KernelTunables::grid_tuned());
  std::vector<SimTime> finish(16, 0);
  for (int r = 0; r < 16; ++r)
    sim.spawn(timed_alltoall(job.rank(r), 10, bytes,
                             &finish[static_cast<size_t>(r)]));
  sim.run();
  if (stats) *stats = job.traffic();
  return *std::max_element(finish.begin(), finish.end());
}

TEST(Bruck, FewerMessagesThanPairwise) {
  TrafficStats bruck, pairwise;
  run_alltoall("bruck", 64, &bruck);
  run_alltoall("pairwise", 64, &pairwise);
  // log2(16) = 4 rounds vs 15 steps.
  EXPECT_LT(bruck.collective_messages, pairwise.collective_messages / 2);
}

TEST(Bruck, WinsForTinyPayloadsLosesForLarge) {
  // Tiny payloads: latency dominates, fewer rounds win.
  EXPECT_LT(run_alltoall("bruck", 8), run_alltoall("pairwise", 8));
  // Large payloads: Bruck forwards each byte log2(p)/2 times on average.
  EXPECT_GT(run_alltoall("bruck", 256e3), run_alltoall("pairwise", 256e3));
}

}  // namespace
}  // namespace gridsim::mpi
