// Tests for the MPI point-to-point engine: matching semantics, eager vs
// rendez-vous behaviour, non-blocking operations, and Table 4 latencies.
#include <gtest/gtest.h>

#include <vector>

#include "mpi/mpi.hpp"
#include "simcore/simulation.hpp"
#include "topology/grid5000.hpp"

namespace gridsim::mpi {
namespace {

using namespace gridsim::literals;

ImplProfile test_profile() {
  ImplProfile p;
  p.name = "test";
  p.send_overhead = microseconds(2) + nanoseconds(500);
  p.recv_overhead = microseconds(2) + nanoseconds(500);
  p.eager_threshold = 256 * 1024;
  return p;
}

struct Fixture {
  Simulation sim;
  topo::Grid grid;
  Job job;
  explicit Fixture(int nodes_per_site = 2,
                   ImplProfile profile = test_profile(),
                   tcp::KernelTunables kernel =
                       tcp::KernelTunables::grid_tuned(),
                   int nranks = -1)
      : grid(sim, topo::GridSpec::rennes_nancy(nodes_per_site)),
        job(grid, block_placement(grid, nranks < 0 ? 2 * nodes_per_site
                                                   : nranks),
            std::move(profile), kernel) {}
};

TEST(Mpi, JobSetup) {
  Fixture f;
  EXPECT_EQ(f.job.size(), 4);
  EXPECT_EQ(f.job.rank(0).rank(), 0);
  EXPECT_EQ(f.job.rank(0).size(), 4);
  // Block placement: ranks 0,1 in Rennes; 2,3 in Nancy.
  EXPECT_EQ(f.grid.site_of(f.job.rank(1).host()), 0);
  EXPECT_EQ(f.grid.site_of(f.job.rank(2).host()), 1);
}

TEST(Mpi, PlacementValidation) {
  Simulation sim;
  topo::Grid grid(sim, topo::GridSpec::rennes_nancy(2));
  EXPECT_THROW(block_placement(grid, 10), std::invalid_argument);
  EXPECT_THROW(Job(grid, {}, test_profile(), tcp::KernelTunables{}),
               std::invalid_argument);
}

TEST(Mpi, EagerSendRecvIntraCluster) {
  Fixture f;
  SimTime recv_done = -1;
  RecvInfo info;
  f.sim.spawn([](Rank& r) -> Task<void> {
    co_await r.send(1, 1000, 7);
  }(f.job.rank(0)));
  f.sim.spawn([](Rank& r, RecvInfo& out, SimTime& t) -> Task<void> {
    out = co_await r.recv(0, 7);
    t = r.sim().now();
  }(f.job.rank(1), info, recv_done));
  f.sim.run();
  EXPECT_EQ(info.source, 0);
  EXPECT_EQ(info.tag, 7);
  EXPECT_DOUBLE_EQ(info.bytes, 1000);
  // One-way time ~ send_ov + stack + 35us wire + transfer + stack + recv_ov.
  EXPECT_GT(recv_done, 40_us);
  EXPECT_LT(recv_done, 80_us);
}

TEST(Mpi, SmallMessageLatencyMatchesTable4Budget) {
  // MPICH2-style 2.5us overheads: one-way = 2.5 + 3 + 35 + 3 + 2.5 = 46 us.
  Fixture f;
  SimTime recv_done = -1;
  f.sim.spawn([](Rank& r) -> Task<void> { co_await r.send(1, 1, 0); }(
      f.job.rank(0)));
  f.sim.spawn([](Rank& r, SimTime& t) -> Task<void> {
    (void)co_await r.recv(0, 0);
    t = r.sim().now();
  }(f.job.rank(1), recv_done));
  f.sim.run();
  EXPECT_NEAR(static_cast<double>(recv_done), 46000, 500);
}

TEST(Mpi, GridLatencyAddsWanPropagation) {
  Fixture f;
  SimTime recv_done = -1;
  f.sim.spawn([](Rank& r) -> Task<void> { co_await r.send(2, 1, 0); }(
      f.job.rank(0)));
  f.sim.spawn([](Rank& r, SimTime& t) -> Task<void> {
    (void)co_await r.recv(0, 0);
    t = r.sim().now();
  }(f.job.rank(2), recv_done));
  f.sim.run();
  // 5800 us one-way + 11 us overheads.
  EXPECT_NEAR(static_cast<double>(recv_done), 5811000, 2000);
}

TEST(Mpi, TagMatchingIsSelective) {
  Fixture f;
  std::vector<int> recv_order;
  f.sim.spawn([](Rank& r) -> Task<void> {
    co_await r.send(1, 100, /*tag=*/5);
    co_await r.send(1, 100, /*tag=*/6);
  }(f.job.rank(0)));
  f.sim.spawn([](Rank& r, std::vector<int>& order) -> Task<void> {
    // Recv tag 6 first even though tag 5 arrives first.
    auto a = co_await r.recv(0, 6);
    order.push_back(a.tag);
    auto b = co_await r.recv(0, 5);
    order.push_back(b.tag);
  }(f.job.rank(1), recv_order));
  f.sim.run();
  EXPECT_EQ(recv_order, (std::vector<int>{6, 5}));
}

TEST(Mpi, NonOvertakingSameTag) {
  Fixture f;
  std::vector<double> sizes;
  f.sim.spawn([](Rank& r) -> Task<void> {
    co_await r.send(1, 111, 3);
    co_await r.send(1, 222, 3);
    co_await r.send(1, 333, 3);
  }(f.job.rank(0)));
  f.sim.spawn([](Rank& r, std::vector<double>& out) -> Task<void> {
    for (int i = 0; i < 3; ++i) out.push_back((co_await r.recv(0, 3)).bytes);
  }(f.job.rank(1), sizes));
  f.sim.run();
  EXPECT_EQ(sizes, (std::vector<double>{111, 222, 333}));
}

TEST(Mpi, AnySourceReceivesFromWhoeverArrivesFirst) {
  Fixture f;
  std::vector<int> sources;
  // Rank 1 (same cluster) arrives before rank 2 (across the WAN).
  f.sim.spawn([](Rank& r) -> Task<void> { co_await r.send(0, 10, 1); }(
      f.job.rank(1)));
  f.sim.spawn([](Rank& r) -> Task<void> { co_await r.send(0, 10, 1); }(
      f.job.rank(2)));
  f.sim.spawn([](Rank& r, std::vector<int>& out) -> Task<void> {
    out.push_back((co_await r.recv(kAnySource, 1)).source);
    out.push_back((co_await r.recv(kAnySource, 1)).source);
  }(f.job.rank(0), sources));
  f.sim.run();
  EXPECT_EQ(sources, (std::vector<int>{1, 2}));
}

TEST(Mpi, RendezvousUsedAboveThreshold) {
  // A >threshold message across the WAN costs an extra round trip for the
  // RTS/CTS handshake compared with an eager message of the same size.
  auto one_way = [](double eager_threshold) {
    Simulation sim;
    topo::Grid grid(sim, topo::GridSpec::rennes_nancy(1));
    ImplProfile p = test_profile();
    p.eager_threshold = eager_threshold;
    Job job(grid, block_placement(grid, 2), p,
            tcp::KernelTunables::grid_tuned());
    SimTime done = -1;
    sim.spawn([](Rank& r) -> Task<void> { co_await r.send(1, 512e3, 0); }(
        job.rank(0)));
    sim.spawn([](Rank& r, SimTime& t) -> Task<void> {
      (void)co_await r.recv(0, 0);
      t = r.sim().now();
    }(job.rank(1), done));
    sim.run();
    return done;
  };
  const SimTime eager = one_way(1e9);
  const SimTime rndv = one_way(64e3);
  ASSERT_GT(eager, 0);
  ASSERT_GT(rndv, 0);
  // The rendez-vous handshake costs one extra WAN round trip (11.6 ms).
  EXPECT_GT(rndv - eager, 11000_us);
  EXPECT_LT(rndv - eager, 13000_us);
}

TEST(Mpi, EagerSendReturnsBeforeDelivery) {
  Fixture f;
  SimTime send_done = -1, recv_done = -1;
  f.sim.spawn([](Rank& r, SimTime& t) -> Task<void> {
    co_await r.send(2, 1000, 0);  // across the WAN
    t = r.sim().now();
  }(f.job.rank(0), send_done));
  f.sim.spawn([](Rank& r, SimTime& t) -> Task<void> {
    (void)co_await r.recv(0, 0);
    t = r.sim().now();
  }(f.job.rank(2), recv_done));
  f.sim.run();
  // Fire-and-forget: the sender completes in microseconds, the receiver
  // waits for WAN propagation.
  EXPECT_LT(send_done, 100_us);
  EXPECT_GT(recv_done, 5800_us);
}

TEST(Mpi, UnexpectedEagerMessagePaysCopy) {
  // Receiver posts late: message waits in the MPI buffer and pays a copy.
  auto recv_time_after_post = [](bool post_late) {
    Simulation sim;
    topo::Grid grid(sim, topo::GridSpec::rennes_nancy(1));
    Job job(grid, block_placement(grid, 2), test_profile(),
            tcp::KernelTunables::grid_tuned());
    SimTime posted_at = -1, done = -1;
    const SimTime delay = post_late ? 100_ms : 0_ms;
    sim.spawn([](Rank& r) -> Task<void> { co_await r.send(1, 200e3, 0); }(
        job.rank(0)));
    sim.spawn([](Rank& r, SimTime d, SimTime& post,
                 SimTime& fin) -> Task<void> {
      co_await r.sim().delay(d);
      post = r.sim().now();
      (void)co_await r.recv(0, 0);
      fin = r.sim().now();
    }(job.rank(1), delay, posted_at, done));
    sim.run();
    return done - posted_at;
  };
  const SimTime posted_first = recv_time_after_post(false);
  const SimTime posted_late = recv_time_after_post(true);
  // Late post: the message has already arrived, so the recv completes in
  // roughly the copy time (200 kB at 2 GB/s ~ 100 us), far below the wire
  // time seen when posting first.
  EXPECT_LT(posted_late, posted_first);
  EXPECT_GT(posted_late, 50_us);
}

TEST(Mpi, IsendIrecvWait) {
  Fixture f;
  RecvInfo got;
  f.sim.spawn([](Rank& r) -> Task<void> {
    Request s = r.isend(1, 4096, 9);
    co_await r.wait(s);
  }(f.job.rank(0)));
  f.sim.spawn([](Rank& r, RecvInfo& out) -> Task<void> {
    Request rq = r.irecv(0, 9);
    out = co_await r.wait(rq);
  }(f.job.rank(1), got));
  f.sim.run();
  EXPECT_EQ(got.source, 0);
  EXPECT_DOUBLE_EQ(got.bytes, 4096);
}

Task<void> send_one(Rank& r, int dst, double bytes, int tag) {
  co_await r.send(dst, bytes, tag);
}

Task<void> receive_two(Rank& r, std::vector<RecvInfo>& out) {
  Request a = r.irecv(1, 5);
  Request b = r.irecv(2, 6);
  out.push_back(co_await r.wait(a));
  out.push_back(co_await r.wait(b));
}

TEST(Mpi, ConcurrentRendezvousFromSendersWithTheSameSeq) {
  // Ranks 1 and 2 each make their first rendez-vous send to rank 0, so both
  // handshakes carry seq 1, and rank 0 waits for both payloads at once: a
  // payload waiter is found by its sender as well as its seq.
  Fixture f;
  std::vector<RecvInfo> got;
  f.sim.spawn(send_one(f.job.rank(1), 0, 1e6, 5));
  f.sim.spawn(send_one(f.job.rank(2), 0, 2e6, 6));
  f.sim.spawn(receive_two(f.job.rank(0), got));
  f.sim.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].source, 1);
  EXPECT_DOUBLE_EQ(got[0].bytes, 1e6);
  EXPECT_EQ(got[1].source, 2);
  EXPECT_DOUBLE_EQ(got[1].bytes, 2e6);
}

TEST(Mpi, WaitAllCompletesEverything) {
  Fixture f;
  int received = 0;
  f.sim.spawn([](Rank& r) -> Task<void> {
    std::vector<Request> reqs;
    for (int i = 0; i < 10; ++i) reqs.push_back(r.isend(1, 1000, i));
    co_await r.wait_all(std::move(reqs));
  }(f.job.rank(0)));
  f.sim.spawn([](Rank& r, int& count) -> Task<void> {
    std::vector<Request> reqs;
    for (int i = 0; i < 10; ++i) reqs.push_back(r.irecv(0, i));
    co_await r.wait_all(std::move(reqs));
    count = 10;
  }(f.job.rank(1), received));
  f.sim.run();
  EXPECT_EQ(received, 10);
}

TEST(Mpi, WaitOnInvalidRequestThrows) {
  Fixture f;
  bool threw = false;
  f.sim.spawn([](Rank& r, bool& out) -> Task<void> {
    try {
      (void)co_await r.wait(Request{});
    } catch (const std::invalid_argument&) {
      out = true;
    }
  }(f.job.rank(0), threw));
  f.sim.run();
  EXPECT_TRUE(threw);
}

TEST(Mpi, ComputeScalesWithCpuSpeed) {
  Fixture f;
  SimTime rennes_done = -1, nancy_done = -1;
  f.sim.spawn([](Rank& r, SimTime& t) -> Task<void> {
    co_await r.compute(1.0);
    t = r.sim().now();
  }(f.job.rank(0), rennes_done));
  f.sim.spawn([](Rank& r, SimTime& t) -> Task<void> {
    co_await r.compute(1.0);
    t = r.sim().now();
  }(f.job.rank(2), nancy_done));
  f.sim.run();
  EXPECT_EQ(rennes_done, 1_s);           // speed 1.0
  EXPECT_GT(nancy_done, rennes_done);    // Nancy is slower (0.97)
}

TEST(Mpi, TrafficStatsClassifyTags) {
  Fixture f;
  f.sim.spawn([](Rank& r) -> Task<void> {
    co_await r.send(1, 100, 0);                       // p2p
    co_await r.send(1, 200, kCollectiveTagBase + 1);  // collective
  }(f.job.rank(0)));
  f.sim.spawn([](Rank& r) -> Task<void> {
    (void)co_await r.recv(0, 0);
    (void)co_await r.recv(0, kCollectiveTagBase + 1);
  }(f.job.rank(1)));
  f.sim.run();
  EXPECT_EQ(f.job.traffic().p2p_messages, 1u);
  EXPECT_DOUBLE_EQ(f.job.traffic().p2p_bytes, 100);
  EXPECT_EQ(f.job.traffic().collective_messages, 1u);
  EXPECT_DOUBLE_EQ(f.job.traffic().collective_bytes, 200);
  EXPECT_EQ(f.job.traffic().p2p_sizes.at(100), 1u);
}

TEST(Mpi, SendToSelfViaLoopback) {
  Fixture f;
  RecvInfo got;
  f.sim.spawn([](Rank& r, RecvInfo& out) -> Task<void> {
    Request rq = r.irecv(0, 42);
    co_await r.send(0, 512, 42);
    out = co_await r.wait(rq);
  }(f.job.rank(0), got));
  f.sim.run();
  EXPECT_EQ(got.source, 0);
  EXPECT_DOUBLE_EQ(got.bytes, 512);
}

TEST(Mpi, LaunchRunsEveryRank) {
  Fixture f;
  std::vector<int> ran;
  f.job.launch([&ran](Rank& r) -> Task<void> {
    ran.push_back(r.rank());
    co_return;
  });
  f.sim.run();
  std::sort(ran.begin(), ran.end());
  EXPECT_EQ(ran, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Mpi, PingPongManyRounds) {
  Fixture f;
  int rounds_done = 0;
  constexpr int kRounds = 50;
  f.sim.spawn([](Rank& r, int& done) -> Task<void> {
    for (int i = 0; i < kRounds; ++i) {
      co_await r.send(2, 1024, 0);
      (void)co_await r.recv(2, 0);
      ++done;
    }
  }(f.job.rank(0), rounds_done));
  f.sim.spawn([](Rank& r) -> Task<void> {
    for (int i = 0; i < kRounds; ++i) {
      (void)co_await r.recv(0, 0);
      co_await r.send(0, 1024, 0);
    }
  }(f.job.rank(2)));
  f.sim.run();
  EXPECT_EQ(rounds_done, kRounds);
  // Each round crosses the WAN twice: >= 11.6 ms per round.
  EXPECT_GT(f.sim.now(), kRounds * 11600_us);
}

// ---------------------------------------------------------------------------
// Wildcard matching order under an explicit MatchArbiter (the engine's
// model-checking hook; see mpi/match_arbiter.hpp).
// ---------------------------------------------------------------------------

/// Deferring arbiter that forces candidate `pick` at the first decision and
/// arrival order everywhere after.
struct FirstPickArbiter final : MatchArbiter {
  explicit FirstPickArbiter(std::size_t pick) : pick_(pick) {}
  bool defer_wildcards() const override { return true; }
  std::size_t choose(const MatchDecision& decision) override {
    ++decisions;
    first_candidates =
        first_candidates ? first_candidates : decision.candidates.size();
    const std::size_t p = decisions == 1 ? pick_ : 0;
    return p < decision.candidates.size() ? p : 0;
  }
  std::size_t pick_;
  int decisions = 0;
  std::size_t first_candidates = 0;
};

TEST(Mpi, WildcardMatchingBothOrdersAreLegal) {
  // Two concurrent senders into one kAnySource receive: MPI allows either
  // matching order. Forcing each via the arbiter must deliver the matched
  // sender's payload intact — source and bytes stay consistent.
  const auto run = [](std::size_t pick) {
    FirstPickArbiter arbiter(pick);
    ScopedArbiter ambient(&arbiter);
    Fixture f;  // the Job adopts the thread's ambient arbiter
    std::vector<int> sources;
    std::vector<double> bytes;
    f.sim.spawn([](Rank& r, std::vector<int>& srcs,
                   std::vector<double>& sizes) -> Task<void> {
      for (int i = 0; i < 2; ++i) {
        const RecvInfo info = co_await r.recv(kAnySource, 1);
        srcs.push_back(info.source);
        sizes.push_back(info.bytes);
      }
    }(f.job.rank(0), sources, bytes));
    f.sim.spawn([](Rank& r) -> Task<void> { co_await r.send(0, 111, 1); }(
        f.job.rank(1)));
    f.sim.spawn([](Rank& r) -> Task<void> { co_await r.send(0, 222, 1); }(
        f.job.rank(2)));
    f.sim.run();
    EXPECT_EQ(arbiter.first_candidates, 2u);  // both senders co-enabled
    return std::make_pair(sources, bytes);
  };
  const auto order0 = run(0);
  EXPECT_EQ(order0.first, (std::vector<int>{1, 2}));
  EXPECT_EQ(order0.second, (std::vector<double>{111, 222}));
  const auto order1 = run(1);
  EXPECT_EQ(order1.first, (std::vector<int>{2, 1}));
  EXPECT_EQ(order1.second, (std::vector<double>{222, 111}));
}

TEST(Mpi, WildcardUnexpectedQueueKeepsArrivalOrder) {
  // Default (arrival-order) arbiter, receiver posts late: both messages sit
  // in the unexpected queue, and the wildcard receives drain it strictly in
  // arrival order — LAN sender (rank 1) first, WAN sender (rank 2) second.
  Fixture f;
  std::vector<int> sources;
  f.sim.spawn([](Rank& r) -> Task<void> { co_await r.send(0, 10, 1); }(
      f.job.rank(1)));
  f.sim.spawn([](Rank& r) -> Task<void> { co_await r.send(0, 10, 1); }(
      f.job.rank(2)));
  f.sim.spawn([](Rank& r, std::vector<int>& out) -> Task<void> {
    co_await r.sim().delay(100_ms);  // both messages are queued by now
    out.push_back((co_await r.recv(kAnySource, 1)).source);
    out.push_back((co_await r.recv(kAnySource, 1)).source);
  }(f.job.rank(0), sources));
  f.sim.run();
  EXPECT_EQ(sources, (std::vector<int>{1, 2}));
}

TEST(Mpi, DeferredWildcardDoesNotStealFromSpecificRecv) {
  // Deferral soundness: while a wildcard is parked, a specific receive that
  // also matches a parked message must not steal a message the
  // earlier-posted wildcard could take — posted order wins. With the
  // wildcard forced to rank 2's message, the specific recv(1) still gets
  // rank 1's.
  FirstPickArbiter arbiter(1);
  ScopedArbiter ambient(&arbiter);
  Fixture f;
  int wild_src = -1, specific_src = -1;
  f.sim.spawn([](Rank& r, int& wild, int& specific) -> Task<void> {
    const Request wildcard = r.irecv(kAnySource, 1);
    const Request from1 = r.irecv(1, 1);
    wild = (co_await r.wait(wildcard)).source;
    specific = (co_await r.wait(from1)).source;
  }(f.job.rank(0), wild_src, specific_src));
  f.sim.spawn([](Rank& r) -> Task<void> { co_await r.send(0, 111, 1); }(
      f.job.rank(1)));
  f.sim.spawn([](Rank& r) -> Task<void> { co_await r.send(0, 222, 1); }(
      f.job.rank(2)));
  f.sim.run();
  EXPECT_EQ(wild_src, 2);
  EXPECT_EQ(specific_src, 1);
}

}  // namespace
}  // namespace gridsim::mpi
